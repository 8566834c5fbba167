"""End-to-end: run_experiment(observe=) acceptance criteria.

One GC-pressured TPC-B run (high utilization, thin over-provisioning)
shared by all assertions: the trace must causally attribute >= 95% of
inline GC erases to a transaction-bearing host write, the sampler must
produce a dense time series, and the run artefact must hold the run.
"""

from dataclasses import asdict, fields

import pytest

from repro.bench.harness import (
    ExperimentConfig,
    ExperimentResult,
    ObservedResult,
    run_experiment,
)
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.stats import DeviceStats
from repro.ftl.noftl import NoFtlDevice
from repro.obs import ObserveConfig
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
def observed():
    result = run_experiment(
        gc_pressure_config(), observe=ObserveConfig(sample_interval_s=0.01)
    )
    return result, result.artefact({"seed": 42})


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
        assert result.device.gc_erases > 0, "config no longer produces GC pressure"
        assert len(obs.tracer.by_name("gc_erase")) == result.device.gc_erases
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
        assert erase_series[-1] == result.device.gc_erases

    def test_artefact_holds_the_samples(self, observed):
        result, artefact = observed
        samples = artefact["samples"]
        assert samples == result.observation.samples
        assert list(samples[0])[0] == "t_s"
        assert "gc_erases" in samples[0]

    def test_artefact_holds_result_and_histograms(self, observed):
        result, artefact = observed
        assert artefact["version"] == 2
        assert artefact["build"] == {"seed": 42}
        assert artefact["result"]["device"] == asdict(result.device)
        assert artefact["result"]["flash"] == asdict(result.flash)
        assert artefact["histograms"]["txn_latency_us"]["count"] == 1500
        assert sum(artefact["erase_counts"]) >= result.device.gc_erases
        assert artefact["result"]["time_breakdown_us"]["erase"] > 0
        assert artefact["ledger"]["conservation_errors"] == []
        assert (
            artefact["ledger"]["causes"]["gc_migration"]["erases"]
            == result.device.gc_erases
        )

    def test_artefact_holds_the_spans(self, observed):
        result, artefact = observed
        spans = artefact["spans"]
        assert len(spans) == len(result.observation.spans())
        assert artefact["spans_dropped"] == 0
        names = {span["name"] for span in spans}
        assert "gc_erase" in names and "txn" in names

    def test_txn_latency_histogram(self, observed):
        result, _ = observed
        hist = result.observation.txn_latency
        assert hist.count == 1500
        assert hist.quantile(0.5) > 0


class TestDeviceCounters:
    def test_two_region_noftl_sums_each_counter_once(self):
        # Each region of a NoFTL device counts its own traffic; the
        # device's stats are their sum, every counter counted once.
        chip = FlashChip(
            FlashGeometry(
                page_size=4096, oob_size=128, pages_per_block=16, blocks=32
            )
        )
        device = NoFtlDevice(chip, background_gc=True)
        hot = device.create_region("hot", blocks=16)
        cold = device.create_region("cold", blocks=16)
        page = bytes(chip.geometry.page_size)
        for i in range(6 * device.logical_pages):
            region = hot if i % 2 else cold
            device.write_page(region.lba_base + i % 50, page)
        assert hot.stats.background_gc_erases > 0
        assert cold.stats.background_gc_erases > 0

        stats = device.stats
        for f in fields(DeviceStats):
            assert getattr(stats, f.name) == getattr(hot.stats, f.name) + getattr(
                cold.stats, f.name
            ), f.name


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
        assert result.observation.config == ObserveConfig()
        assert len(result.observation.samples) >= 1
