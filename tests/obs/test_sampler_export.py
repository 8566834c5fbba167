"""Time-series sampler: interval gating and derived rates."""

import pytest

from repro.flash.latency import SimClock
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
        assert list(sampler.samples[0]) == ["t_s", "ops"]

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
