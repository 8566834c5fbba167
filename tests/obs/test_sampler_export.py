"""Time-series sampler plus CSV / Prometheus exporter round-trips."""

import pytest

from repro.flash.latency import SimClock
from repro.obs.export import (
    parse_prometheus,
    registry_to_prometheus,
    samples_to_csv,
    write_samples_csv,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.sampler import TimeSeriesSampler


def make_sampler(interval_s=0.01, rates=None):
    clock = SimClock()
    state = {"ops": 0}
    sampler = TimeSeriesSampler(
        clock,
        interval_s=interval_s,
        collectors={"ops": lambda: state["ops"]},
        rates=rates,
    )
    return sampler, clock, state


class TestSampler:
    def test_interval_gating(self):
        sampler, clock, state = make_sampler(interval_s=0.01)  # 10_000 us
        assert sampler.maybe_sample()  # first call is due immediately
        state["ops"] = 5
        clock.advance(9_999.0)
        assert not sampler.maybe_sample()  # one float compare, not due
        clock.advance(2.0)
        assert sampler.maybe_sample()
        assert len(sampler) == 2
        assert sampler.samples[1]["ops"] == 5

    def test_rates_derived_between_samples(self):
        sampler, clock, state = make_sampler()
        sampler.maybe_sample()
        state["ops"] = 100
        clock.advance(20_000.0)  # 0.02 simulated s
        sampler.sample_now()
        row = sampler.samples[-1]
        assert row["ops"] == 100
        assert row["ops_per_s"] == pytest.approx(100 / 0.02)
        assert sampler.samples[0]["ops_per_s"] == 0.0  # no prior interval

    def test_rates_opt_out(self):
        sampler, _, _ = make_sampler(rates=())
        sampler.sample_now()
        assert "ops_per_s" not in sampler.samples[0]
        assert sampler.columns == ["t_s", "ops"]

    def test_schedules_from_now_after_stall(self):
        sampler, clock, _ = make_sampler(interval_s=0.01)
        sampler.maybe_sample()
        clock.advance(100_000.0)  # a 10-interval stall
        assert sampler.maybe_sample()
        assert not sampler.maybe_sample()  # no burst of catch-up samples
        assert len(sampler) == 2

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            TimeSeriesSampler(SimClock(), interval_s=0.0)

    def test_add_collector(self):
        sampler, _, _ = make_sampler()
        sampler.add_collector("depth", lambda: 7)
        sampler.sample_now()
        assert sampler.samples[0]["depth"] == 7


class TestCsv:
    def test_round_trip(self, tmp_path):
        sampler, clock, state = make_sampler()
        for ops in (0, 10, 30):
            state["ops"] = ops
            sampler.sample_now()
            clock.advance(10_000.0)
        text = samples_to_csv(sampler.samples, sampler.columns)
        lines = text.strip().splitlines()
        assert lines[0] == "t_s,ops,ops_per_s"
        assert len(lines) == 4
        first = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(first["ops"]) == 0
        path = tmp_path / "series.csv"
        write_samples_csv(str(path), sampler.samples, sampler.columns)
        assert path.read_text() == text

    def test_missing_column_renders_empty(self):
        text = samples_to_csv([{"a": 1}], columns=["a", "b"])
        assert text.splitlines()[1] == "1,"

    def test_column_appearing_mid_run_not_dropped(self):
        # A collector added after sampling started must still get a
        # column (union of keys, first-appearance order) — not be
        # silently truncated to the first row's keys.
        samples = [
            {"t_s": 0.0, "ops": 1},
            {"t_s": 1.0, "ops": 2, "depth": 7},
            {"t_s": 2.0, "ops": 3, "depth": 8},
        ]
        lines = samples_to_csv(samples).strip().splitlines()
        assert lines[0] == "t_s,ops,depth"
        assert lines[1] == "0,1,"      # early row: empty cell, not a shift
        assert lines[2] == "1,2,7"
        assert lines[3] == "2,3,8"

    def test_mid_run_column_via_sampler(self):
        sampler, clock, state = make_sampler(rates=())
        sampler.sample_now()
        sampler.add_collector("late", lambda: 42)
        clock.advance(10_000.0)
        sampler.sample_now()
        text = samples_to_csv(sampler.samples)
        lines = text.strip().splitlines()
        assert lines[0].split(",") == ["t_s", "ops", "late"]
        assert lines[1].endswith(",")
        assert lines[2].endswith(",42")


class TestPrometheus:
    def build_registry(self):
        registry = MetricsRegistry()
        registry.register_callback(
            "host_writes", lambda: 12, help="pages written", kind="counter"
        )
        registry.register_callback(
            "free_blocks", lambda: 5, help="pool depth", kind="gauge"
        )
        hist = registry.histogram("lat_us", help="latency",
                                  bounds=(10.0, 100.0))
        for value in (5, 50, 5000):
            hist.observe(value)
        registry.register_callback("wear", lambda: 3.5, kind="gauge")
        return registry

    def test_export_parses_cleanly(self):
        text = registry_to_prometheus(self.build_registry())
        parsed = parse_prometheus(text)
        assert parsed["repro_host_writes"] == 12
        assert parsed["repro_free_blocks"] == 5
        assert parsed["repro_wear"] == 3.5

    def test_histogram_cumulative_buckets(self):
        text = registry_to_prometheus(self.build_registry())
        parsed = parse_prometheus(text)
        assert parsed['repro_lat_us_bucket{le="10"}'] == 1
        assert parsed['repro_lat_us_bucket{le="100"}'] == 2
        assert parsed['repro_lat_us_bucket{le="+Inf"}'] == 3
        assert parsed["repro_lat_us_count"] == 3
        assert parsed["repro_lat_us_sum"] == 5055

    def test_help_and_type_lines_present(self):
        text = registry_to_prometheus(self.build_registry())
        assert "# HELP repro_host_writes pages written" in text
        assert "# TYPE repro_host_writes counter" in text
        assert "# TYPE repro_lat_us histogram" in text

    def test_name_sanitization(self):
        registry = MetricsRegistry()
        registry.register_callback("region:a.b-c", lambda: 1, kind="counter")
        text = registry_to_prometheus(registry)
        assert "repro_region:a_b_c 1" in text
        parse_prometheus(text)  # sanitized names must stay legal

    def test_malformed_lines_raise(self):
        with pytest.raises(ValueError):
            parse_prometheus("justonetoken")
        with pytest.raises(ValueError):
            parse_prometheus("bad name! 1")

    def test_repeated_sample_raises(self):
        # Prometheus rejects a scrape that repeats a series; a parser
        # that let the later value win would hide such an export.
        parse_prometheus('a 1\na{c="0"} 2\na{c="1"} 3\n')
        with pytest.raises(ValueError, match="repeated"):
            parse_prometheus("a 1\nb 2\na 1\n")

    def test_disabled_registry_exports_nothing(self):
        from repro.obs.metrics import NULL_REGISTRY

        assert registry_to_prometheus(NULL_REGISTRY) == ""


class TestPrometheusLabels:
    def build_labeled_registry(self):
        from repro.obs.metrics import Histogram

        registry = MetricsRegistry()
        for channel, busy in ((0, 10.0), (2, 184.0)):
            registry.register_callback(
                "channel_busy_us",
                lambda busy=busy: busy,
                help="channel busy time",
                kind="counter",
                labels={"channel": str(channel)},
            )
        hist = Histogram(
            "lba_lifetime_us", "lifetime", bounds=(100.0, 1000.0),
            labels={"cause": "host_heap"},
        )
        for value in (50, 500, 5000):
            hist.observe(value)
        registry.register_metric(hist)
        return registry

    def test_labeled_samples_round_trip(self):
        text = registry_to_prometheus(self.build_labeled_registry())
        parsed = parse_prometheus(text)
        assert parsed['repro_channel_busy_us{channel="0"}'] == 10.0
        assert parsed['repro_channel_busy_us{channel="2"}'] == 184.0

    def test_help_type_once_per_family(self):
        text = registry_to_prometheus(self.build_labeled_registry())
        assert text.count("# HELP repro_channel_busy_us") == 1
        assert text.count("# TYPE repro_channel_busy_us") == 1

    def test_labeled_histogram_series(self):
        text = registry_to_prometheus(self.build_labeled_registry())
        parsed = parse_prometheus(text)
        key = 'repro_lba_lifetime_us_bucket{cause="host_heap",le="100"}'
        assert parsed[key] == 1
        assert parsed[
            'repro_lba_lifetime_us_bucket{cause="host_heap",le="+Inf"}'
        ] == 3
        assert parsed['repro_lba_lifetime_us_sum{cause="host_heap"}'] == 5550
        assert parsed['repro_lba_lifetime_us_count{cause="host_heap"}'] == 3


class TestZeroElapsedInterval:
    """PR 8 regression: two samples at the same simulated instant used a
    1e-12 s clamp, exploding a 100-op delta into a 1e14/s rate spike."""

    def test_zero_dt_emits_zero_rate(self):
        sampler, clock, state = make_sampler()
        sampler.sample_now()
        state["ops"] = 100
        sampler.sample_now()  # clock did not advance
        assert sampler.samples[-1]["ops_per_s"] == 0.0

    def test_rate_resumes_after_zero_dt(self):
        sampler, clock, state = make_sampler()
        sampler.sample_now()
        sampler.sample_now()  # zero-dt sample
        state["ops"] = 50
        clock.advance(10_000.0)  # 0.01 simulated s
        sampler.sample_now()
        assert sampler.samples[-1]["ops_per_s"] == pytest.approx(50 / 0.01)
