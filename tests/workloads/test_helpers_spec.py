"""The generators' random helpers against the numpy calls they stand for
(``tests.reference.workloads``): same values, same errors, and the
generator left where the numpy calls leave it."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.base import draws, nurand, release, zipf_index
from repro.workloads.ycsb import _value
from tests.flash._rng import force_next_uniform
from tests.reference import outcome
from tests.reference.workloads import (
    ref_nurand,
    ref_value,
    ref_zipf_cdf,
    ref_zipf_index,
)

_helper_calls = st.lists(
    st.one_of(
        st.tuples(
            st.just("nurand"),
            st.sampled_from([-1, 0, 255, 1023, 8191]),
            st.integers(min_value=0, max_value=20),
            st.integers(min_value=0, max_value=3000),
        ),
        st.tuples(
            st.just("zipf_index"),
            st.sampled_from([-3, 0, 1, 2, 7, 300, 6000]),
            st.sampled_from([-0.1, 0.0, 0.5, 1.0, 1.2, 3.0]),
        ),
        st.tuples(st.just("value"), st.sampled_from([0, 1, 9, 10, 37])),
    ),
    min_size=1,
    max_size=60,
)

_HELPERS = {
    "nurand": (nurand, ref_nurand),
    "zipf_index": (zipf_index, ref_zipf_index),
    "value": (_value, ref_value),
}


class TestRandomHelpers:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), calls=_helper_calls)
    @settings(max_examples=150, deadline=None)
    def test_same_values_same_errors_same_stream(self, seed, calls):
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        for name, *args in calls:
            live, spec = _HELPERS[name]
            assert outcome(live, rng, *args) == outcome(spec, reference, *args)
        # The follow-up draw, read through the stream and after a release.
        assert draws(rng).random() == reference.random()
        release(rng)
        assert rng.integers(0, 1000) == reference.integers(0, 1000)
        assert rng.random() == reference.random()

    def test_a_uniform_on_a_cdf_step_picks_the_rank_above_it(self):
        """``searchsorted(side="right")``: a uniform equal to ``cdf[k]``
        belongs to rank ``k + 1``.  Uniform rank weights put the steps
        on exact multiples of ``1/n``; each is forced in turn."""
        for n, rank in ((2, 0), (4, 1), (8, 6)):
            step = float(ref_zipf_cdf(n, 0.0)[rank])
            rng, reference = np.random.default_rng(5), np.random.default_rng(5)
            for generator in (rng, reference):
                force_next_uniform(generator, step)
            expected = ref_zipf_index(reference, n, 0.0)
            assert expected == rank + 1
            assert zipf_index(rng, n, 0.0) == expected
            release(rng)
