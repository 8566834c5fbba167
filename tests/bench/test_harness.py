"""Experiment harness: config validation, stack building, measurement."""

import math

import pytest

from repro.baselines.ipl import IplStore
from repro.bench.harness import (
    ExperimentConfig,
    ExperimentResult,
    build_stack,
    run_experiment,
)
from repro.bench.report import (
    relative_pct,
    render_comparison,
    render_table,
    summarize,
)
from repro.core.config import IPA_DISABLED, SCHEME_2X4
from repro.flash.stats import DeviceStats
from repro.flash.modes import FlashMode
from repro.ftl.ipa_ftl import IpaFtl
from repro.ftl.noftl import NoFtlDevice
from repro.ftl.page_mapping import PageMappingFtl
from repro.workloads.tpcb import TpcbWorkload


def tiny_tpcb():
    return TpcbWorkload(scale=1, accounts_per_branch=400, history_pages=40)


class TestConfigValidation:
    def test_unknown_architecture_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(workload=tiny_tpcb(), architecture="quantum")

    def test_ipa_without_scheme_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(
                workload=tiny_tpcb(),
                architecture="ipa-native",
                scheme=IPA_DISABLED,
            )

    def test_ipl_requires_slc(self):
        with pytest.raises(ValueError):
            ExperimentConfig(
                workload=tiny_tpcb(),
                architecture="ipl",
                mode=FlashMode.PSLC,
            )

    def test_labels(self):
        config = ExperimentConfig(
            workload=tiny_tpcb(),
            architecture="ipa-native",
            scheme=SCHEME_2X4,
            mode=FlashMode.PSLC,
        )
        assert "[2x4]" in config.display_label()
        assert "pslc" in config.display_label()


class TestBuildStack:
    def test_device_types(self):
        cases = [
            ("traditional", IPA_DISABLED, FlashMode.MLC, PageMappingFtl),
            ("ipa-blockdev", SCHEME_2X4, FlashMode.PSLC, IpaFtl),
            ("ipa-native", SCHEME_2X4, FlashMode.PSLC, NoFtlDevice),
            ("ipl", IPA_DISABLED, FlashMode.SLC, IplStore),
        ]
        for architecture, scheme, mode, device_type in cases:
            _db, manager = build_stack(
                ExperimentConfig(
                    workload=tiny_tpcb(),
                    architecture=architecture,
                    scheme=scheme,
                    mode=mode,
                )
            )
            assert isinstance(manager.device, device_type), architecture

    def test_auto_geometry_fits_workload(self):
        for mode in (FlashMode.MLC, FlashMode.PSLC):
            _db, manager = build_stack(
                ExperimentConfig(
                    workload=tiny_tpcb(),
                    architecture="ipa-native" if mode is FlashMode.PSLC else "traditional",
                    scheme=SCHEME_2X4 if mode is FlashMode.PSLC else IPA_DISABLED,
                    mode=mode,
                )
            )
            needed = tiny_tpcb().estimate_pages(manager.page_size)
            assert manager.device.logical_pages >= needed

    def test_explicit_geometry_respected(self):
        from repro.flash.geometry import FlashGeometry

        geo = FlashGeometry(page_size=2048, oob_size=128, pages_per_block=32,
                            blocks=64)
        _db, manager = build_stack(
            ExperimentConfig(
                workload=tiny_tpcb(), architecture="traditional", geometry=geo
            )
        )
        assert manager.device.chip.geometry is geo


class TestRunExperiment:
    def test_fixed_transactions(self):
        result = run_experiment(
            ExperimentConfig(
                workload=tiny_tpcb(),
                architecture="traditional",
                mode=FlashMode.SLC,
                transactions=120,
                buffer_pages=8,
            )
        )
        assert result.transactions == 120
        assert result.elapsed_s > 0
        assert result.tps > 0
        assert result.device.total_host_write_ops > 0

    def test_fixed_duration(self):
        result = run_experiment(
            ExperimentConfig(
                workload=tiny_tpcb(),
                architecture="traditional",
                mode=FlashMode.SLC,
                duration_s=0.05,
                buffer_pages=8,
            )
        )
        assert result.elapsed_s >= 0.05
        assert result.transactions > 0

    def test_counters_exclude_load_phase(self):
        result = run_experiment(
            ExperimentConfig(
                workload=tiny_tpcb(),
                architecture="traditional",
                mode=FlashMode.SLC,
                transactions=1,
                buffer_pages=64,
            )
        )
        # One transaction cannot generate hundreds of page writes; if the
        # load phase leaked into the counters this would be large.
        assert result.device.total_host_write_ops < 50

    def test_deterministic(self):
        def one():
            return run_experiment(
                ExperimentConfig(
                    workload=tiny_tpcb(),
                    architecture="ipa-native",
                    mode=FlashMode.PSLC,
                    scheme=SCHEME_2X4,
                    transactions=150,
                    buffer_pages=8,
                    seed=99,
                )
            )

        a, b = one(), one()
        assert a.device == b.device
        assert a.flash == b.flash
        assert a.tps == b.tps


class TestReport:
    def test_relative_pct(self):
        assert relative_pct(150, 100) == 50.0
        assert relative_pct(50, 100) == -50.0
        assert math.isnan(relative_pct(5, 0))
        # Table 1 prints a change against a zero base as "-".
        base = ExperimentResult("a", "tpcb", 10, 1.0, 10.0)
        other = ExperimentResult(
            "b", "tpcb", 10, 1.0, 10.0, device=DeviceStats(gc_erases=5)
        )
        lines = render_comparison(base, [other]).splitlines()
        assert ["GC", "Erases", "0", "5", "-"] in [line.split() for line in lines]

    def test_render_table_alignment(self):
        out = render_table(["A", "Metric"], [["1", "x"], ["22", "yy"]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "Metric" in lines[2]
        assert len(lines) == 6

    def test_comparison_and_summary_smoke(self):
        result = run_experiment(
            ExperimentConfig(
                workload=tiny_tpcb(),
                architecture="traditional",
                mode=FlashMode.SLC,
                transactions=60,
                buffer_pages=8,
            )
        )
        text = render_comparison(result, [result])
        assert "Transactional Throughput" in text
        assert "+0" in text  # self-comparison is all zeros
        assert "tpcb" in summarize(result)
