"""End-to-end: run_experiment(observe=) acceptance criteria.

One GC-pressured TPC-B run (high utilization, thin over-provisioning)
shared by all assertions: the trace must causally attribute >= 95% of
inline GC erases to a transaction-bearing host write, the sampler must
produce a dense time series, and both exporters must round-trip.
"""

from dataclasses import fields

import pytest

from repro.bench.harness import (
    ExperimentConfig,
    ExperimentResult,
    ObservedResult,
    run_experiment,
)
from repro.core.config import IPA_DISABLED
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.stats import DeviceStats
from repro.ftl.noftl import NoFtlDevice
from repro.obs import Observation, ObserveConfig
from repro.obs.export import parse_prometheus
from repro.obs.trace import load_jsonl
from repro.storage.manager import StorageManager, TraditionalPolicy
from repro.workloads.tpcb import TpcbWorkload


def gc_pressure_config(transactions=1500):
    """The regime the paper measures in: overwrites force inline GC."""
    return ExperimentConfig(
        workload=TpcbWorkload(scale=1, accounts_per_branch=2000),
        architecture="traditional",
        transactions=transactions,
        buffer_pages=32,
        device_utilization=0.92,
        over_provisioning=0.08,
    )


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    trace_path = str(tmp_path_factory.mktemp("trace") / "spans.jsonl")
    result = run_experiment(
        gc_pressure_config(),
        observe=ObserveConfig(sample_interval_s=0.01, trace_path=trace_path),
    )
    return result, trace_path


class TestObservedRun:
    def test_returns_observed_result(self, observed):
        result, _ = observed
        assert isinstance(result, ObservedResult)
        assert result.observation is not None
        assert result.transactions == 1500

    def test_trace_covers_every_layer(self, observed):
        result, _ = observed
        names = {s.name for s in result.observation.spans()}
        assert {"txn", "evict", "host_write", "ftl_write",
                "gc_collect", "gc_erase", "chip_erase"} <= names
        assert len(result.observation.tracer.by_name("txn")) == 1500

    def test_gc_erases_attributed(self, observed):
        result, _ = observed
        obs = result.observation
        assert result.gc_erases > 0, "config no longer produces GC pressure"
        assert len(obs.tracer.by_name("gc_erase")) == result.gc_erases
        assert obs.gc_attribution_rate() >= 0.95
        for rec in obs.gc_attribution():
            if rec["host_write"] is not None:
                assert rec["stall_us"] > 0

    def test_time_series_density(self, observed):
        result, _ = observed
        samples = result.observation.samples
        assert len(samples) >= 20
        assert samples[-1]["t_s"] == pytest.approx(result.elapsed_s, rel=1e-6)
        # cumulative collectors are monotonic
        erase_series = [row["gc_erases"] for row in samples]
        assert erase_series == sorted(erase_series)
        assert erase_series[-1] == result.gc_erases

    def test_csv_export(self, observed):
        result, _ = observed
        text = result.observation.export_csv()
        lines = text.strip().splitlines()
        assert len(lines) - 1 == len(result.observation.samples)
        assert lines[0].startswith("t_s,")
        assert "gc_erases" in lines[0].split(",")

    def test_prometheus_export_parses(self, observed):
        result, _ = observed
        parsed = parse_prometheus(result.observation.export_prometheus())
        assert parsed["repro_device_gc_erases"] == result.gc_erases
        assert parsed["repro_txn_latency_us_count"] == 1500
        assert parsed["repro_flash_block_erases"] >= result.gc_erases
        assert parsed["repro_clock_erase_us"] > 0

    def test_jsonl_sink_written(self, observed):
        result, trace_path = observed
        records = load_jsonl(trace_path)
        assert len(records) >= len(result.observation.spans())
        names = {r["name"] for r in records}
        assert "gc_erase" in names and "txn" in names

    def test_txn_latency_histogram(self, observed):
        result, _ = observed
        hist = result.observation.txn_latency
        assert hist.count == 1500
        assert hist.quantile(0.5) > 0


class TestDeviceCounterExport:
    def test_two_region_noftl_exports_each_counter_once(self):
        # Per-region registries used to export every device counter once
        # per region under one unlabeled name — a scrape Prometheus
        # rejects.  The aggregate exports each counter once, summed.
        chip = FlashChip(
            FlashGeometry(
                page_size=4096, oob_size=128, pages_per_block=16, blocks=32
            )
        )
        device = NoFtlDevice(chip, background_gc=True)
        hot = device.create_region("hot", blocks=16)
        cold = device.create_region("cold", blocks=16)
        manager = StorageManager(
            device, IPA_DISABLED, TraditionalPolicy(), buffer_capacity=4
        )
        obs = Observation.create(manager)
        page = bytes(chip.geometry.page_size)
        for i in range(6 * device.logical_pages):
            region = hot if i % 2 else cold
            device.write_page(region.lba_base + i % 50, page)
        assert hot.stats.background_gc_erases > 0
        assert cold.stats.background_gc_erases > 0

        text = obs.export_prometheus()
        parsed = parse_prometheus(text)  # raises on a repeated series
        assert "device_extra" not in text
        for f in fields(DeviceStats):
            name = f"repro_device_{f.name}"
            assert text.count(f"# TYPE {name} ") == 1
            assert parsed[name] == getattr(hot.stats, f.name) + getattr(
                cold.stats, f.name
            )


class TestUnobservedRun:
    def test_plain_run_stays_plain(self):
        result = run_experiment(gc_pressure_config(transactions=50))
        assert type(result) is ExperimentResult
        assert not hasattr(result, "observation")

    def test_observe_true_uses_defaults(self):
        result = run_experiment(
            gc_pressure_config(transactions=50), observe=True
        )
        assert isinstance(result, ObservedResult)
        assert result.observation.config.trace_path is None
        assert len(result.observation.samples) >= 1
