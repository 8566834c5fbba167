"""Disturb model and wordline adjacency."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash import interference
from repro.flash.ecc import EccConfig
from repro.flash.interference import DisturbModel, neighbour_pages
from repro.flash.modes import FlashMode, ModeRules, rules_for
from tests.flash._rng import force_next_uniform


class TestNeighbourPages:
    def test_slc_adjacent_pages(self):
        rules = rules_for(FlashMode.SLC)
        assert neighbour_pages(3, 8, rules) == [2, 4]
        assert neighbour_pages(0, 8, rules) == [1]
        assert neighbour_pages(7, 8, rules) == [6]

    def test_mlc_includes_pair_and_adjacent_wordlines(self):
        rules = rules_for(FlashMode.MLC)
        # Page 4 = LSB of wordline 2: pair is 5, neighbours WL1 (2,3) and
        # WL3 (6,7).
        victims = neighbour_pages(4, 8, rules)
        assert set(victims) == {5, 2, 3, 6, 7}

    def test_mlc_edge_wordline(self):
        rules = rules_for(FlashMode.MLC)
        victims = neighbour_pages(0, 8, rules)
        assert set(victims) == {1, 2, 3}

    def test_pslc_pairs_like_mlc(self):
        # pSLC runs on MLC silicon: the unused MSB page is still coupled.
        rules = rules_for(FlashMode.PSLC)
        assert 1 in neighbour_pages(0, 8, rules)


class TestDisturbModel:
    def test_mlc_reprogram_rate_dominates(self):
        ecc = EccConfig()
        mlc = DisturbModel(rules_for(FlashMode.MLC), ecc, 4096, seed=1)
        slc = DisturbModel(rules_for(FlashMode.SLC), ecc, 4096, seed=1)
        mlc_total = sum(int(mlc.disturb_counts(True).sum()) for _ in range(500))
        slc_total = sum(int(slc.disturb_counts(True).sum()) for _ in range(500))
        assert mlc_total > 50
        assert slc_total == 0  # 1e-9/bit: essentially never at this scale

    def test_reprogram_worse_than_program_on_mlc(self):
        ecc = EccConfig()
        model = DisturbModel(rules_for(FlashMode.MLC), ecc, 4096, seed=2)
        reprogram = sum(
            int(model.disturb_counts(True).sum()) for _ in range(300)
        )
        program = sum(
            int(model.disturb_counts(False).sum()) for _ in range(300)
        )
        assert reprogram > program

    def test_counts_shape_matches_codewords(self):
        ecc = EccConfig(codeword_bytes=1024)
        model = DisturbModel(rules_for(FlashMode.MLC), ecc, 8192, seed=3)
        counts = model.disturb_counts(True)
        assert counts.shape == (8,)
        assert (counts >= 0).all()

    def test_deterministic_per_seed(self):
        ecc = EccConfig()
        a = DisturbModel(rules_for(FlashMode.MLC), ecc, 4096, seed=9)
        b = DisturbModel(rules_for(FlashMode.MLC), ecc, 4096, seed=9)
        for _ in range(50):
            assert np.array_equal(a.disturb_counts(True), b.disturb_counts(True))


# ---------------------------------------------------------------------- #
# The draw kernel against numpy's own sampler
# ---------------------------------------------------------------------- #

PAGE_SIZE = 4096
MODES = list(FlashMode)
CODEWORD_BYTES = [512, 1024, 2048]
#: x1 is every mode's real rate; x3000 makes non-zero draws the rule.
SCALES = [1, 3000]
#: The largest double ``Generator.random`` returns.
U_MAX = (2**53 - 1) / 2**53


def _scaled_rules(mode: FlashMode, scale: int, codeword_bytes: int) -> ModeRules:
    """``mode``'s rates times ``scale``, kept inside the kernel's regime."""
    base = rules_for(mode)
    cap = min(3e-3, 30.0 / (codeword_bytes * 8))
    return ModeRules(
        mode=mode,
        capacity_factor=base.capacity_factor,
        disturb_rate_reprogram=min(base.disturb_rate_reprogram * scale, cap),
        disturb_rate_program=min(base.disturb_rate_program * scale, cap),
    )


class _Pair:
    """A kernel and the plain ``Generator.binomial`` it must reproduce."""

    def __init__(self, rules: ModeRules, codeword_bytes: int, seed: int) -> None:
        ecc = EccConfig(codeword_bytes=codeword_bytes)
        self.rules = rules
        self.bits = codeword_bytes * 8
        self.codewords = ecc.codewords_for(PAGE_SIZE)
        self.model = DisturbModel(rules, ecc, PAGE_SIZE, seed=seed)
        self.reference = np.random.default_rng(seed)
        self.injected = 0

    def check_draw(self, reprogram: bool, victims: int) -> None:
        rate = (
            self.rules.disturb_rate_reprogram
            if reprogram
            else self.rules.disturb_rate_program
        )
        expected = self.reference.binomial(
            self.bits, rate, size=(victims, self.codewords)
        )
        rows = self.model.draw(reprogram, victims)
        if rows is None:
            assert not expected.any()
        else:
            assert rows == expected.tolist()
            assert expected.any()  # None is the only all-zero answer
        self.injected += int(expected.sum())
        assert self.model.total_injected_bits == self.injected


class TestDisturbKernel:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        mode=st.sampled_from(MODES),
        scale=st.sampled_from(SCALES),
        codeword_bytes=st.sampled_from(CODEWORD_BYTES),
        prefetch=st.sampled_from([1, 7, 64, interference.PREFETCH]),
        pulses=st.lists(
            st.tuples(st.booleans(), st.integers(min_value=1, max_value=5)),
            min_size=1,
            max_size=60,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_stream_identical_to_generator_binomial(
        self, seed, mode, scale, codeword_bytes, prefetch, pulses
    ):
        """Interleaved program/reprogram pulses with 1-5 victims; a small
        prefetch block makes draws straddle a refill all the time."""
        pair = _Pair(_scaled_rules(mode, scale, codeword_bytes), codeword_bytes, seed)
        with mock.patch.object(interference, "PREFETCH", prefetch):
            for reprogram, victims in pulses:
                pair.check_draw(reprogram, victims)

    def test_a_draw_straddling_the_real_prefetch_block(self):
        pair = _Pair(_scaled_rules(FlashMode.MLC, 3000, 1024), 1024, seed=11)
        per_draw = 5 * pair.codewords
        for _ in range(interference.PREFETCH // per_draw + 3):
            pair.check_draw(True, 5)
        # 20 does not divide 8192: one of the draws above crossed a refill.
        assert interference.PREFETCH % per_draw

    @pytest.mark.parametrize("codeword_bytes", CODEWORD_BYTES)
    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
    @pytest.mark.parametrize("reprogram", [False, True])
    def test_uniforms_forced_onto_every_probability_boundary(
        self, reprogram, mode, scale, codeword_bytes
    ):
        """A random stream never lands within 1e-13 of a boundary between
        two outcomes, which is where a sampler that is almost numpy's
        (``log(1 - p)`` for ``log1p(-p)``, say) differs.  So the generators
        are made to return the doubles next to each cumulative probability,
        and the largest double of all, which walks the whole loop."""
        rules = _scaled_rules(mode, scale, codeword_bytes)
        bits = codeword_bytes * 8
        rate = rules.disturb_rate_reprogram if reprogram else rules.disturb_rate_program
        forced = {0.0, U_MAX}
        cumulative, px, x = 0.0, math.exp(bits * math.log1p(-rate)), 0
        while px > 0.0 and cumulative < 1.0 and x <= 80:
            cumulative += px
            nearest = min(int(cumulative * 2**53), 2**53 - 2)
            forced.update((nearest + step) / 2**53 for step in (-1, 0, 1))
            x += 1
            px = ((bits - x + 1) * rate * px) / (x * (1.0 - rate))
        with mock.patch.object(interference, "PREFETCH", 16):
            for uniform in sorted(forced):
                pair = _Pair(rules, codeword_bytes, seed=5)
                force_next_uniform(pair.model._rng, uniform)
                force_next_uniform(pair.reference, uniform)
                pair.check_draw(reprogram, 1)
                pair.check_draw(reprogram, 2)  # both streams go on in step

    def test_the_restart_consumes_a_second_uniform(self):
        """MLC reprogram on the default 1 KB codewords: rounding leaves the
        summed probabilities just short of ``U_MAX``, so the sampler counts
        past ``bound`` and starts the variate over on a fresh uniform."""
        pair = _Pair(rules_for(FlashMode.MLC), 1024, seed=5)
        force_next_uniform(pair.model._rng, U_MAX)
        force_next_uniform(pair.reference, U_MAX)
        pair.check_draw(True, 1)
        assert pair.model._cursor == pair.codewords + 1
        pair.check_draw(True, 3)

    def test_hot_positions_agree_with_the_slice_maximum(self):
        """The all-zero test reads the next hot position, not the slice.

        With real MLC rates (``P(X = 0)`` above one half, so it and its
        neighbouring doubles are values ``Generator.random`` can return),
        every 16-uniform block gets one of those six doubles forced in at
        a varying offset, and 1-3-victim program and reprogram draws
        interleave across the refills.  Before each draw the slice
        maximum says whether it is all-zero; the kernel must agree: no
        inversion and the cursor moved past the draw when it is, an
        inversion when it is not."""
        model = DisturbModel(
            rules_for(FlashMode.MLC), EccConfig(codeword_bytes=2048), PAGE_SIZE,
            seed=7,
        )
        samplers = (model._program, model._reprogram)
        forced = [
            value
            for sampler in samplers
            for value in (
                np.nextafter(sampler.zero_below, 0.0),
                sampler.zero_below,
                np.nextafter(sampler.zero_below, 1.0),
            )
        ]
        assert all(0.5 < v < 1.0 and (v * 2**53).is_integer() for v in forced)
        pulses = np.random.default_rng(3)
        block, blocks, forced_seen = None, 0, 0
        with mock.patch.object(interference, "PREFETCH", 16), mock.patch.object(
            model, "_invert", wraps=model._invert
        ) as invert:
            for _ in range(1500):
                if model._uniforms is not block:
                    block = model._uniforms
                    at = 1 + blocks % 15
                    force_next_uniform(
                        model._rng, forced[blocks % len(forced)], ahead=at
                    )
                    blocks += 1
                reprogram = bool(pulses.integers(0, 2))
                victims = int(pulses.integers(1, 4))
                sampler = samplers[reprogram]
                start = model._cursor
                end = start + victims * model._n_codewords
                uniforms = model._uniforms
                zero = (
                    end <= len(uniforms)
                    and max(uniforms[start:end]) <= sampler.zero_below
                )
                if end <= len(uniforms) and any(
                    u in forced for u in uniforms[start:end]
                ):
                    forced_seen += 1
                calls = invert.call_count
                rows = model.draw(reprogram, victims)
                if zero:
                    assert rows is None and invert.call_count == calls
                    assert model._cursor == end
                else:
                    assert invert.call_count == calls + 1
        assert blocks > 100 and forced_seen > 200

    def test_zero_rate_draws_nothing_and_consumes_nothing(self):
        rules = ModeRules(FlashMode.SLC, 1.0, 0.0, 0.0)
        model = DisturbModel(rules, EccConfig(), PAGE_SIZE, seed=1)
        before = model._rng.bit_generator.state
        assert model.draw(True, 3) is None and model.draw(False, 1) is None
        assert not model.disturb_counts(True).any()
        assert model._rng.bit_generator.state == before


class TestRateValidation:
    @pytest.mark.parametrize("rate", [-1e-9, 0.5000001, 2.0, float("nan")])
    @pytest.mark.parametrize("field", ["disturb_rate_reprogram", "disturb_rate_program"])
    def test_mode_rules_reject_a_rate_that_is_no_probability(self, field, rate):
        rates = {"disturb_rate_reprogram": 1e-9, "disturb_rate_program": 1e-9}
        rates[field] = rate
        with pytest.raises(ValueError, match=rf"mlc mode: {field} "):
            ModeRules(mode=FlashMode.MLC, capacity_factor=1.0, **rates)

    def test_model_rejects_a_rate_outside_the_inversion_regime(self):
        # 8192 bits x 4e-3 = 32.8 expected flips: numpy would switch to BTPE.
        rules = ModeRules(FlashMode.MLC, 1.0, 4e-3, 1e-7)
        with pytest.raises(ValueError, match=r"mlc mode: disturb rate 0\.004 "):
            DisturbModel(rules, EccConfig(codeword_bytes=1024), PAGE_SIZE)
        DisturbModel(rules, EccConfig(codeword_bytes=512), PAGE_SIZE)  # 16.4: fine

    def test_every_built_in_mode_is_valid_for_the_supported_codewords(self):
        for mode in FlashMode:
            for codeword_bytes in CODEWORD_BYTES:
                DisturbModel(
                    rules_for(mode),
                    EccConfig(codeword_bytes=codeword_bytes),
                    PAGE_SIZE,
                )
