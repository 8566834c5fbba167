"""The workload draw kernel against numpy's own samplers.

``DrawStream`` replays ``numpy.random.Generator`` over PCG64 from
prefetched raw words.  Every test here drives a *twin* generator (same
seed, same forged state) through the plain numpy API and requires the
same values and, afterwards, the same stream position: random
interleavings of every sampler over every bound the five workloads use,
states forged onto each rejection boundary of the bounded-integer
sampler, and the adoption contract (live state in, exact state out,
bounded registry, loud failure on a generator drawn from behind its
stream's back).
"""

import math
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import base
from repro.workloads.base import DrawStream, draws, release
from tests.reference.workloads import ref_nurand, ref_value, ref_zipf_index

_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645

#: ``integers(low, high)`` bounds: the fixed ones of the five generators,
#: then the sampler's corners — a span of one (numpy consumes nothing),
#: TATP's 2**31 (leftover below the span half the time, never rejected),
#: a span that rejects half its draws, and the two largest spans.
FIXED_BOUNDS = [
    (0, 2), (0, 4), (0, 10), (0, 16), (0, 24), (0, 26), (0, 256),
    (1, 5), (1, 11), (5, 16), (10, 101), (1, 10000), (100, 500000),
    (-99999, 100000), (0, 8192),
    (0, 1), (0, 2**31), (0, 2**31 + 1), (0, 2**32 - 5), (0, 2**32 - 1),
]  # fmt: skip


def position(rng):
    """Where a generator stands: PCG64 state plus a waiting 32-bit half."""
    state = rng.bit_generator.state
    half = state["uinteger"] if state["has_uint32"] else None
    return state["state"]["state"], half


class Twin:
    """The numpy API calls the kernel's methods stand for."""

    def __init__(self, rng):
        self.rng = rng

    def random(self):
        return self.rng.random()

    def integers(self, low, high):
        return int(self.rng.integers(low, high))

    def letters(self, size):
        return ref_value(self.rng, size)

    def zipf(self, n, theta):
        return ref_zipf_index(self.rng, n, theta)

    def nurand(self, a, x, y):
        return ref_nurand(self.rng, a, x, y)


def pair(seed, buffered=False):
    """A generator and its twin, optionally with a 32-bit half waiting."""
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered:
        assert rng.integers(0, 10) == twin.integers(0, 10)
        assert position(rng)[1] is not None
    return rng, Twin(twin)


_populations = st.integers(min_value=1, max_value=20_000)
_ops = st.one_of(
    st.tuples(st.just("random")),
    st.tuples(st.just("integers"), st.sampled_from(FIXED_BOUNDS)).map(
        lambda op: (op[0], *op[1])
    ),
    # Table sizes, adjacency-list lengths, scale factors: [0, n).
    st.tuples(st.just("integers"), st.just(0), _populations),
    st.tuples(st.just("letters"), st.sampled_from([0, 1, 2, 9, 10, 37, 100])),
    st.tuples(
        st.just("zipf"),
        st.sampled_from([1, 2, 10, 300, 6000]),
        st.sampled_from([0.0, 0.5, 1.2]),
    ),
    st.tuples(
        st.just("nurand"),
        st.sampled_from([255, 8191]),
        st.just(0),
        st.integers(min_value=0, max_value=999),
    ),
)


class TestStreamIdentity:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        buffered=st.booleans(),
        prefetch=st.sampled_from([1, 2, 5, 64, 1024]),
        ops=st.lists(_ops, min_size=1, max_size=300),
    )
    def test_interleaved_samplers_match_the_numpy_api(
        self, seed, buffered, prefetch, ops
    ):
        rng, twin = pair(seed, buffered)
        with mock.patch.object(base, "PREFETCH", prefetch):
            stream = DrawStream(rng)
            for name, *args in ops:
                got = getattr(stream, name)(*args)
                expected = getattr(twin, name)(*args)
                assert got == expected, (name, args)
                assert type(got) is type(expected), (name, args)
            stream.release()
        assert position(rng) == position(twin.rng)

    @pytest.mark.parametrize("buffered", [False, True])
    def test_every_bound_across_many_refills(self, buffered):
        """Long enough to cross the real block size several times, and to
        meet the half-rejecting span's redraw loop hundreds of times."""
        rng, twin = pair(11, buffered)
        stream = DrawStream(rng)
        for step in range(6 * base.PREFETCH):
            low, high = FIXED_BOUNDS[step % len(FIXED_BOUNDS)]
            assert stream.integers(low, high) == twin.integers(low, high)
            if step % 7 == 0:
                assert stream.random() == twin.random()
            if step % 5 == 0:
                assert stream.letters(10) == twin.letters(10)
        stream.release()
        assert position(rng) == position(twin.rng)

    def test_random_leaves_a_waiting_half_alone(self):
        rng, twin = pair(3)
        stream = DrawStream(rng)
        assert stream.integers(0, 10) == twin.integers(0, 10)  # buffers a half
        assert stream.random() == twin.random()  # a whole new word
        assert stream.integers(0, 10) == twin.integers(0, 10)  # the old half
        stream.release()
        assert position(rng) == position(twin.rng)

    def test_letters_are_slices_of_one_table_per_block(self):
        """The load phase's shape: aligned ten-letter values only."""
        rng, twin = pair(5)
        stream = DrawStream(rng)
        stream.random(), twin.random()  # fetch the first block
        table = None
        for _ in range(base.PREFETCH // 5 - 1):
            assert stream.letters(10) == twin.letters(10)
            assert stream._table and (table is None or stream._table is table)
            table = stream._table


class TestOneDrawPerRow:
    """A YCSB row's fields are slices of one ``letters`` draw: exact only
    if ``letters(a + b)`` spells ``letters(a) + letters(b)`` and leaves the
    stream where they leave it, as ``rng.integers(0, 26, a + b)`` does
    (numpy's PCG64 keeps a 32-bit half between calls)."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        buffered=st.booleans(),
        prefetch=st.sampled_from([1, 2, 5, 64]),
        lead=st.integers(min_value=0, max_value=3),
        a=st.integers(min_value=0, max_value=41),
        b=st.integers(min_value=0, max_value=41),
    )
    def test_one_draw_spells_two(self, seed, buffered, prefetch, lead, a, b):
        """Odd sizes, a half carried in (buffered, or left by an odd lead)
        and, with a small block, draws that straddle a refill."""
        whole_rng, twin = pair(seed, buffered)
        split_rng, _ = pair(seed, buffered)
        with mock.patch.object(base, "PREFETCH", prefetch):
            whole, split = DrawStream(whole_rng), DrawStream(split_rng)
            for _ in range(lead):
                assert whole.letters(1) == split.letters(1) == twin.letters(1)
            joined = whole.letters(a + b)
            assert joined == split.letters(a) + split.letters(b)
            assert joined == twin.letters(a + b)
            whole.release()
            split.release()
        assert position(whole_rng) == position(split_rng) == position(twin.rng)

    @pytest.mark.parametrize("fields, size", [(10, 10), (3, 7)])
    def test_rows_across_refills(self, fields, size):
        """Rows of ten ten-letter fields and of three seven-letter ones
        (a half left over after every row) over many small blocks."""
        whole_rng, twin = pair(99)
        split_rng, _ = pair(99)
        with mock.patch.object(base, "PREFETCH", 8):
            whole, split = DrawStream(whole_rng), DrawStream(split_rng)
            for _ in range(200):
                text = whole.letters(fields * size)
                assert [text[i * size : (i + 1) * size] for i in range(fields)] == [
                    split.letters(size) for _ in range(fields)
                ]
                assert text == twin.letters(fields * size)
            whole.release()
            split.release()
        assert position(whole_rng) == position(split_rng) == position(twin.rng)


# ---------------------------------------------------------------------- #
# Forged states: every rejection boundary of the bounded sampler
# ---------------------------------------------------------------------- #


def force_next_word(rng, word):
    """Set a PCG64 generator's state so that its next raw word is ``word``
    (the inverse-multiplier method of ``force_next_uniform`` in
    ``tests/flash/_rng.py``: a new state whose high half is
    zero outputs its low half unrotated)."""
    state = rng.bit_generator.state
    inverse = pow(_PCG64_MULTIPLIER, -1, 2**128)
    state["state"]["state"] = ((word - state["state"]["inc"]) * inverse) % 2**128
    rng.bit_generator.state = state


def force_buffered_half(rng, half):
    state = rng.bit_generator.state
    state["has_uint32"], state["uinteger"] = 1, half
    rng.bit_generator.state = state


def half_with_leftover(span, leftover):
    """The 32-bit half ``h`` with ``(h * span) % 2**32 == leftover``."""
    common = math.gcd(span, 2**32)
    assert leftover % common == 0
    modulus = 2**32 // common
    return (leftover // common) * pow(span // common, -1, modulus) % modulus


def boundary_halves(span):
    """Halves landing ``leftover`` on the sampler's three edges: the last
    rejected value, the first accepted one (``threshold``) and the last
    one the ``leftover < span`` pre-check looks at.  A span sharing a
    factor ``g`` with 2**32 only reaches multiples of ``g``, so the edges
    are ``threshold - g``, ``threshold`` and ``span - g``."""
    common = math.gcd(span, 2**32)
    threshold = 2**32 % span
    edges = {"threshold": threshold, "span - 1": span - common}
    if threshold:
        edges["threshold - 1"] = threshold - common
    return {
        name: half_with_leftover(span, leftover)
        for name, leftover in edges.items()
    }


_FORGED_BOUNDS = [b for b in FIXED_BOUNDS if b[1] - b[0] > 1] + [(0, 6_000), (0, 12_000)]
#: The other half of a forged word (any value will do: both sides of a
#: comparison see the same one).
_FILLER = 0x9E3779B9


def forge(generator, carrier, half):
    """Make ``half`` the next 32-bit half but one ("high half") or the
    next one the generator hands out."""
    if carrier == "buffered half":
        force_buffered_half(generator, half)
    elif carrier == "low half":
        force_next_word(generator, _FILLER << 32 | half)
    else:
        force_next_word(generator, half << 32 | _FILLER)


class TestForgedStates:
    @pytest.mark.parametrize("low, high", _FORGED_BOUNDS)
    @pytest.mark.parametrize("carrier", ["buffered half", "low half", "high half"])
    def test_leftover_on_every_edge(self, low, high, carrier):
        span = high - low
        for edge, half in boundary_halves(span).items():
            rng, twin, skipper = (np.random.default_rng(17) for _ in range(3))
            for generator in (rng, twin, skipper):
                forge(generator, carrier, half)
            twin = Twin(twin)
            stream = DrawStream(rng)
            if carrier == "high half":  # the stream splits the word itself
                assert stream.integers(0, 2) == twin.integers(0, 2)
                skipper.integers(0, 2)
            expected = twin.integers(low, high)
            if edge == "threshold - 1":
                # Rejected: numpy answered from the halves after the forged
                # one, as a generator that skips it (a span of two takes
                # one half and never rejects) does.
                skipper.integers(0, 2)
                assert expected == int(skipper.integers(low, high)), edge
                assert position(twin.rng) == position(skipper), edge
            else:
                assert expected == low + (half * span >> 32), edge
            assert stream.integers(low, high) == expected, edge
            for _ in range(3):
                assert stream.integers(low, high) == twin.integers(low, high)
                assert stream.random() == twin.random()
            stream.release()
            assert position(rng) == position(twin.rng), edge

    @pytest.mark.parametrize("where", [0, 1, 6, 7])
    @pytest.mark.parametrize("half_of_word", ["low", "high"])
    def test_a_rejection_candidate_inside_a_letters_block(self, where, half_of_word):
        """One half of the block scales to a leftover below ``2**32 % 26``:
        numpy redraws that letter, so the block's table may not be used."""
        candidate = boundary_halves(26)["threshold - 1"]
        assert (candidate * 26 & 0xFFFFFFFF) < base._LETTER_THRESHOLD
        assert (_FILLER * 26 & 0xFFFFFFFF) >= base._LETTER_THRESHOLD
        word = (
            _FILLER << 32 | candidate
            if half_of_word == "low"
            else candidate << 32 | _FILLER
        )
        rng, twin = pair(23)
        for generator in (rng, twin.rng):
            force_next_word(generator, word)
            generator.bit_generator.advance(-where)
        with mock.patch.object(base, "PREFETCH", 8):
            stream = DrawStream(rng)
            assert stream.random() == twin.random()  # fetches the block
            assert stream._letter_table() == ""
            for size in (3, 4, 10, 1, 10, 10):
                assert stream.letters(size) == twin.letters(size)
            stream.release()
        assert position(rng) == position(twin.rng)

    def test_a_clean_block_has_a_table(self):
        rng, _ = pair(23)
        stream = DrawStream(rng)
        stream.random()
        table = stream._letter_table()
        assert len(table) == 2 * base.PREFETCH
        assert set(table) <= set("abcdefghijklmnopqrstuvwxyz")


# ---------------------------------------------------------------------- #
# Adoption: live state in, exact state out, bounded registry
# ---------------------------------------------------------------------- #


@pytest.fixture
def registry():
    """Run against an empty registry and leave none of ours behind."""
    saved = dict(base._STREAMS)
    base._STREAMS.clear()
    yield base._STREAMS
    base._STREAMS.clear()
    base._STREAMS.update(saved)


def _mixed_draws(source, count):
    out = []
    for step in range(count):
        out.append(source.integers(0, 10 + step))
        out.append(source.random())
        out.append(source.letters(5))
    return out


class TestAdoption:
    def test_adopt_draw_release_numpy_readopt(self, registry):
        """4 000 rounds of adopt -> draw -> release -> plain numpy draws:
        the generator and its twin agree at every step."""
        rng, twin = pair(31)
        for round_ in range(4000):
            count = round_ % 4
            assert _mixed_draws(draws(rng), count) == _mixed_draws(twin, count)
            assert id(rng) in registry
            release(rng)
            assert id(rng) not in registry
            assert position(rng) == position(twin.rng)
            for _ in range(round_ % 3):
                assert rng.integers(0, 77) == twin.rng.integers(0, 77)
                assert rng.random() == twin.rng.random()

    def test_a_released_stream_picks_up_where_it_stopped(self):
        """Eviction may release a stream some frame still holds: it goes
        on from the generator's handed-back state, half included."""
        rng, twin = pair(8)
        stream = DrawStream(rng)
        for _ in range(3):
            assert _mixed_draws(stream, 3) == _mixed_draws(twin, 3)
            assert stream.integers(0, 10) == twin.integers(0, 10)
            stream.release()
            assert position(rng) == position(twin.rng)

    def test_draws_returns_one_stream_per_generator(self, registry):
        rng, other = np.random.default_rng(1), np.random.default_rng(1)
        assert draws(rng) is draws(rng)
        assert draws(rng) is not draws(other)
        assert draws(rng).rng is rng

    def test_release_of_a_stranger_is_a_no_op(self, registry):
        rng, twin = pair(2, buffered=True)
        release(rng)
        assert position(rng) == position(twin.rng)

    def test_adoption_that_draws_nothing_moves_nothing(self, registry):
        rng, twin = pair(2, buffered=True)
        draws(rng)
        assert position(rng) == position(twin.rng)
        release(rng)
        assert position(rng) == position(twin.rng)

    def test_a_forced_eviction_in_mid_run_changes_nothing(self, registry):
        """Three generators taking turns in a registry of two: every turn
        evicts a stream with unread words and a waiting half."""
        pairs = [pair(seed, buffered=seed % 2 == 0) for seed in (41, 42, 43)]
        with mock.patch.object(base, "MAX_STREAMS", 2):
            for turn in range(300):
                rng, twin = pairs[turn % 3]
                assert _mixed_draws(draws(rng), 2) == _mixed_draws(twin, 2)
                assert len(registry) <= 2
            for rng, twin in pairs:
                release(rng)
                assert position(rng) == position(twin.rng)

    def test_the_registry_is_bounded(self, registry):
        generators = [np.random.default_rng(seed) for seed in range(200)]
        for rng in generators:
            draws(rng).random()
        assert len(registry) == base.MAX_STREAMS
        # The evicted ones were handed back one word in, not a block in.
        reference = np.random.default_rng(0)
        reference.random()
        assert position(generators[0]) == position(reference)

    def test_eviction_drops_a_stream_its_generator_outran(self, registry):
        """A caller that went on drawing from its generator directly left
        the stream behind; evicting it must not rewind the generator."""
        rng = np.random.default_rng(5)
        draws(rng).random()
        rng.random()
        moved_on = position(rng)
        with mock.patch.object(base, "MAX_STREAMS", 1):
            draws(np.random.default_rng(6)).random()
        assert id(rng) not in registry
        assert position(rng) == moved_on

    def test_threads_evict_only_their_own_streams(self, registry):
        """More workers than cores, each cycling through more generators
        than the registry holds, on a short switch interval: a stream
        evicted under another thread's feet would replay or skip words."""
        failures = []

        def worker(index):
            try:
                pairs = [pair(1000 * index + k) for k in range(5)]
                for turn in range(400):
                    rng, twin = pairs[turn % 5]
                    stream = draws(rng)
                    for step in range(6):
                        if stream.integers(0, 97) != twin.integers(0, 97):
                            raise AssertionError(f"worker {index} turn {turn}")
                for rng, twin in pairs:
                    release(rng)
                    assert position(rng) == position(twin.rng)
            except Exception as error:  # reported by the main thread
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with mock.patch.object(base, "MAX_STREAMS", 4), mock.patch.object(
                base, "PREFETCH", 16
            ):
                threads = [
                    threading.Thread(target=worker, args=(i,), daemon=True)
                    for i in range(6)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


class TestLoudFailures:
    def test_a_direct_draw_raises_at_the_next_refill(self, registry):
        rng = np.random.default_rng(9)
        with mock.patch.object(base, "PREFETCH", 8):
            stream = draws(rng)
            stream.random()
            rng.random()  # behind the stream's back
            for _ in range(7):
                stream.random()  # still inside the prefetched block
            with pytest.raises(RuntimeError, match="drawn from directly"):
                stream.random()

    def test_a_direct_half_draw_is_noticed_too(self, registry):
        """A 32-bit draw on a generator with a waiting half moves no PCG64
        state; the check compares the whole bit-generator state."""
        rng, _ = pair(9, buffered=True)
        stream = draws(rng)
        rng.integers(0, 10)
        with pytest.raises(RuntimeError, match="drawn from directly"):
            stream.random()

    def test_release_refuses_a_generator_that_moved(self, registry):
        rng = np.random.default_rng(9)
        draws(rng).random()
        rng.random()
        with pytest.raises(RuntimeError, match="drawn from directly"):
            release(rng)

    @pytest.mark.parametrize(
        "bit_generator",
        [np.random.MT19937, np.random.Philox, np.random.SFC64, np.random.PCG64DXSM],
    )
    def test_only_pcg64_is_adopted(self, bit_generator, registry):
        rng = np.random.Generator(bit_generator(1))
        with pytest.raises(TypeError, match=bit_generator.__name__):
            draws(rng)
        assert not registry

    def test_empty_range_raises_what_numpy_raises(self):
        stream = DrawStream(np.random.default_rng(1))
        for low, high in ((5, 5), (5, 4), (-3, -7)):
            with pytest.raises(ValueError) as ours:
                stream.integers(low, high)
            with pytest.raises(ValueError) as theirs:
                np.random.default_rng(1).integers(low, high)
            assert str(ours.value) == str(theirs.value) == "low >= high"
        with pytest.raises(ValueError, match="low >= high"):
            stream.integers(0, 0)  # numpy words this one "high <= 0"

    def test_span_beyond_the_32_bit_sampler_is_refused(self):
        rng, twin = pair(1)
        stream = DrawStream(rng)
        assert stream.integers(0, 2**32 - 1) == twin.integers(0, 2**32 - 1)
        for low, high in ((0, 2**32), (-1, 2**32 - 1), (0, 2**40)):
            with pytest.raises(ValueError, match=r"2\*\*32 - 1"):
                stream.integers(low, high)

    def test_negative_letter_count_raises_what_numpy_raises(self):
        stream = DrawStream(np.random.default_rng(1))
        with pytest.raises(ValueError, match="negative dimensions"):
            stream.letters(-1)
        with pytest.raises(ValueError, match="negative dimensions"):
            np.random.default_rng(1).integers(0, 26, -1)
