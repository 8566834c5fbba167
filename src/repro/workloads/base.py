"""Workload contract, the draw kernel and the shared random helpers.

Every random number a generator in this package consumes comes from one
kernel, :class:`DrawStream`.  It is ``numpy.random.Generator`` over PCG64
replayed in plain Python over a prefetched block of the bit generator's
raw words, so a seeded run draws exactly what the numpy API would have
drawn — locked bit for bit by ``tests/workloads/test_draw_kernel.py``,
down to forged states on every rejection boundary — without a numpy
dispatch on a scalar or a ten-element operand per transaction.
"""

from __future__ import annotations

import abc
import threading
from array import array
from bisect import bisect_right

import numpy as np

from repro.engine.database import Database
from repro.storage.layout import SLOT_SIZE, SlottedPage


def rows_per_page(db: Database, record_size: int) -> int:
    """Records of ``record_size`` bytes fitting one page *under the active
    IPA scheme* (the delta area shrinks the usable body, so capacity must
    be computed from an actual formatted page, not a guessed margin)."""
    page = SlottedPage.fresh(0, db.manager.page_size, db.manager.scheme)
    return max(page.free_space // (record_size + SLOT_SIZE), 1)


def pages_for_rows(db: Database, rows: int, record_size: int) -> int:
    """Heap-file page budget for ``rows`` records, with slack."""
    per_page = rows_per_page(db, record_size)
    return rows // per_page + 2


class Workload(abc.ABC):
    """One benchmark: schema, initial load, and a transaction mix.

    Subclasses are configured at construction (scale factor etc.) and are
    stateless across runs except for generator cursors (next history id,
    next order id, ...), which ``build`` resets.

    The ``rng`` handed to ``build`` / ``transaction`` belongs to the
    workload from its first draw until :func:`release` hands it back: the
    draw kernel prefetches from it, so a caller that wants to draw from
    the same generator itself must release it first.
    """

    name: str = "abstract"

    @abc.abstractmethod
    def build(self, db: Database, rng: np.random.Generator) -> None:
        """Create tables and load the initial population."""

    @abc.abstractmethod
    def transaction(self, db: Database, rng: np.random.Generator) -> str:
        """Run one transaction from the standard mix; returns its type."""

    @abc.abstractmethod
    def estimate_pages(self, page_size: int) -> int:
        """Rough page budget the load needs (for capacity planning)."""


# ---------------------------------------------------------------------- #
# The draw kernel
# ---------------------------------------------------------------------- #

#: Raw 64-bit words fetched from the bit generator per refill.
PREFETCH = 2048

_MASK32 = 0xFFFFFFFF
_TO_DOUBLE = 1.0 / 9007199254740992.0  # 2**-53, as numpy's next_double
_ALPHABET = "abcdefghijklmnopqrstuvwxyz"
#: ``2**32 % 26``: a 32-bit half whose scaled low word falls below this is
#: rejected by the bounded-integer sampler when it draws a letter.
_LETTER_THRESHOLD = (1 << 32) % 26


class DrawStream:
    """``numpy.random.Generator`` over PCG64, replayed over prefetched words.

    The stream *adopts* a generator: it starts from the generator's live
    state (a buffered 32-bit half included), pulls ``PREFETCH`` raw words
    at a time and replays numpy's samplers over them, so every method
    returns what the same call on the generator would have returned and
    consumes what it would have consumed.  :meth:`release` hands the
    generator back exactly where the stream stands.

    Raises:
        TypeError: the bit generator is not ``PCG64`` (the replay is
            defined for PCG64's 32-bit buffering only).
    """

    __slots__ = (
        "rng", "owner", "_bitgen", "_words", "_cursor", "_half", "_table",
        "_expected",
    )

    def __init__(self, rng: np.random.Generator) -> None:
        bitgen = rng.bit_generator
        if type(bitgen) is not np.random.PCG64:
            raise TypeError(
                f"DrawStream replays PCG64 only, got a generator over "
                f"{type(bitgen).__name__}"
            )
        self.rng = rng
        #: The thread that adopted the generator (see :func:`draws`).
        self.owner = threading.current_thread()
        self._bitgen = bitgen
        # Raw words, not a list of int objects: an eighth of the memory
        # per stream, and a refill is one memcpy.
        self._words = array("Q")
        self._cursor = 0
        self._expected = state = bitgen.state
        #: PCG64's buffered high half, waiting for the next 32-bit draw;
        #: -1 when there is none.
        self._half: int = state["uinteger"] if state["has_uint32"] else -1
        #: Letters of the current block's halves, built on first use; ``""``
        #: when the block holds a half the letter sampler would reject.
        self._table: str | None = None

    def _intact(self) -> bool:
        """Whether the generator is where this stream left it."""
        return self._bitgen.state == self._expected

    def _require_intact(self) -> None:
        if not self._intact():
            raise RuntimeError(
                "a generator adopted by a DrawStream was drawn from directly: "
                "its stream has already prefetched past that point, so the "
                "seeded sequence is broken; call "
                "repro.workloads.base.release(rng) before using it yourself"
            )

    def _refill(self) -> None:
        self._require_intact()
        self._words = array("Q", self._bitgen.random_raw(PREFETCH).tobytes())
        self._expected = self._bitgen.state
        self._cursor = 0
        self._table = None

    def release(self) -> None:
        """Hand the generator back exactly where this stream stands."""
        self._require_intact()
        bitgen = self._bitgen
        unused = len(self._words) - self._cursor
        if unused:
            bitgen.advance(-unused)
        state = bitgen.state
        state["has_uint32"] = int(self._half >= 0)
        state["uinteger"] = max(self._half, 0)
        bitgen.state = state
        self._expected = state
        self._words = array("Q")
        self._cursor = 0
        self._table = None

    # -- samplers ------------------------------------------------------- #

    def random(self) -> float:
        """``rng.random()``: one whole word; a buffered half stays put."""
        cursor = self._cursor
        try:
            word = self._words[cursor]
        except IndexError:
            self._refill()
            cursor = 0
            word = self._words[0]
        self._cursor = cursor + 1
        return (word >> 11) * _TO_DOUBLE

    def integers(self, low: int, high: int) -> int:
        """``int(rng.integers(low, high))`` for a span below ``2**32``.

        numpy's ``buffered_bounded_lemire_uint32`` over PCG64's 32-bit
        halves: low half of a fresh word first, the high half kept for the
        next 32-bit draw.
        """
        span = high - low
        if not 1 < span <= _MASK32:
            if span == 1:
                return low  # numpy consumes nothing here either
            if span < 1:
                raise ValueError("low >= high")
            raise ValueError(
                f"DrawStream.integers covers spans up to 2**32 - 1, "
                f"got [{low}, {high})"
            )
        half = self._half
        if half >= 0:
            self._half = -1
        else:
            cursor = self._cursor
            try:
                word = self._words[cursor]
            except IndexError:
                self._refill()
                cursor = 0
                word = self._words[0]
            self._cursor = cursor + 1
            half = word & _MASK32
            self._half = word >> 32
        scaled = half * span
        leftover = scaled & _MASK32
        if leftover < span and leftover < (1 << 32) % span:
            return self.integers(low, high)  # rejected: next half
        return low + (scaled >> 32)

    def letters(self, size: int) -> str:
        """``size`` lowercase letters, as ``rng.integers(0, 26, size)`` spells
        them: one slice of the block's letter table."""
        if size < 1:
            if size < 0:
                raise ValueError("negative dimensions are not allowed")
            return ""
        head = ""
        while self._half >= 0 and size:
            head += _ALPHABET[self.integers(0, 26)]
            size -= 1
        table = self._table
        if table is None:
            table = self._table = self._letter_table()
        cursor = self._cursor
        stop = cursor + ((size + 1) >> 1)
        if not table or stop > len(self._words):
            # A half numpy would reject, or a value straddling a refill:
            # walk letter by letter through the exact scalar sampler.
            integers = self.integers
            return head + "".join(
                [_ALPHABET[integers(0, 26)] for _ in range(size)]
            )
        self._cursor = stop
        if size & 1:
            self._half = self._words[stop - 1] >> 32
        start = cursor << 1
        return head + table[start : start + size]

    def _letter_table(self) -> str:
        """The letter each 32-bit half of the block maps to, low half
        first; empty when some half is a rejection candidate."""
        words = np.frombuffer(self._words, dtype=np.uint64)
        scaled = np.empty(2 * len(words), dtype=np.uint64)
        scaled[0::2] = words & _MASK32
        scaled[1::2] = words >> 32
        scaled *= 26
        if not len(words) or int((scaled & _MASK32).min()) < _LETTER_THRESHOLD:
            return ""
        return ((scaled >> 32) + 97).astype(np.uint8).tobytes().decode("ascii")

    def zipf(self, n: int, theta: float = 1.2) -> int:
        """Zipf index in ``[0, n)``; see :func:`zipf_index`."""
        if n == 1 and theta >= 0:
            return 0
        cdf = _ZIPF_CDF_CACHE.get((n, theta)) or _zipf_cdf(n, theta)
        index = bisect_right(cdf, self.random())
        return index if index < n else n - 1

    def nurand(self, a: int, x: int, y: int) -> int:
        """TPC-C NURand(A, x, y); see :func:`nurand`."""
        if y < x:
            raise ValueError(f"empty NURand range [{x}, {y}]")
        if a < 0:
            raise ValueError(f"NURand A must be >= 0, got {a}")
        return (
            (self.integers(0, a + 1) | self.integers(x, y + 1)) % (y - x + 1)
        ) + x


#: Streams of adopted generators by ``id(generator)``, oldest adoption
#: first; a stream keeps its generator alive, so an id cannot be reused
#: while it is a key.
#:
#: Threads: a stream has one thread, the one that adopted it.  Nothing in
#: the simulator draws from one generator on two threads, but the table
#: is process-global and a caller may run workloads on several threads
#: (one generator each); look-ups are single dict reads, adoption and
#: eviction run under ``_ADOPTION``, and a thread evicts only streams it
#: adopted itself (or whose thread has ended), never one another thread
#: may be in the middle of.
_STREAMS: dict[int, DrawStream] = {}
_ADOPTION = threading.Lock()

#: Streams kept before the oldest is handed back (each holds up to
#: ``PREFETCH`` words plus a letter table, about 20 KB).
MAX_STREAMS = 64


def draws(rng: np.random.Generator) -> DrawStream:
    """The stream of ``rng``, adopting the generator on first use."""
    stream = _STREAMS.get(id(rng))
    if stream is None:
        stream = _adopt(rng)
    return stream


def _adopt(rng: np.random.Generator) -> DrawStream:
    with _ADOPTION:
        stream = _STREAMS.get(id(rng))
        if stream is None:
            stream = DrawStream(rng)
            excess = len(_STREAMS) + 1 - MAX_STREAMS
            if excess > 0:
                me = stream.owner
                evictable = [
                    key
                    for key, old in _STREAMS.items()
                    if old.owner is me or not old.owner.is_alive()
                ]
                for key in evictable[:excess]:
                    old = _STREAMS.pop(key)
                    # A generator its owner went on drawing from directly
                    # has left its stream behind: nothing to hand back.
                    if old._intact():
                        old.release()
            _STREAMS[id(rng)] = stream
    return stream


def release(rng: np.random.Generator) -> None:
    """Hand ``rng`` back to its caller, positioned exactly after the last
    draw its stream made; a generator that was never adopted is left
    alone."""
    with _ADOPTION:
        stream = _STREAMS.pop(id(rng), None)
    if stream is not None:
        stream.release()


def derive_seeds(seed: int, n: int) -> list[int]:
    """``n`` independent child seeds, all descending from ``seed``.

    Uses ``SeedSequence.spawn`` — the numpy-sanctioned way to give
    parallel workers (or a service's shards and sessions) statistically
    independent streams that are still a pure function of the parent
    seed.  Same ``(seed, n)`` in, same list out, on every host.
    """
    parent = np.random.SeedSequence(seed)
    return [int(child.generate_state(1)[0]) for child in parent.spawn(n)]


# ---------------------------------------------------------------------- #
# Shared helpers (generator-level entry points of the kernel)
# ---------------------------------------------------------------------- #


def nurand(rng: np.random.Generator, a: int, x: int, y: int) -> int:
    """TPC-C NURand(A, x, y) non-uniform random (C = 0)."""
    return draws(rng).nurand(a, x, y)


#: Normalized Zipf CDFs keyed by (n, theta), in the form the kernel
#: bisects.  Workloads draw from the same handful of distributions
#: millions of times per run; building the O(n) rank table once per
#: (n, theta) keeps the per-draw cost at one uniform variate plus a
#: binary search.
_ZIPF_CDF_CACHE: dict[tuple[int, float], array] = {}


def _zipf_cdf(n: int, theta: float) -> array:
    key = (n, theta)
    cdf = _ZIPF_CDF_CACHE.get(key)
    if cdf is None:
        if n <= 0:
            raise ValueError(f"zipf_index needs n >= 1, got {n}")
        if theta < 0:
            raise ValueError(f"zipf_index needs theta >= 0, got {theta}")
        weights = np.arange(1, n + 1, dtype=np.float64) ** -theta
        table = np.cumsum(weights)
        table /= table[-1]
        table[-1] = 1.0  # guard fp round-down so a draw of ~1.0 maps in-range
        cdf = _ZIPF_CDF_CACHE[key] = array("d", table.tobytes())
    return cdf


def zipf_index(rng: np.random.Generator, n: int, theta: float = 1.2) -> int:
    """Zipf index in [0, n): rank r drawn with probability ∝ (r+1)^-theta.

    Inverse-CDF sampling over an explicit rank table, replacing the old
    rejection loop around ``rng.zipf``:

    * ``theta`` may be any value >= 0 — ``theta == 0`` is exactly
      uniform, values in (0, 1] are mild skew.  (``rng.zipf`` requires
      theta > 1, so those used to raise; and near 1 the rejection loop
      against an unbounded support degenerated to thousands of retries
      per draw for small ``n``.)
    * ``n == 1`` returns 0 immediately instead of spinning until the
      heavy-tailed sampler happens to emit a 1.
    """
    return draws(rng).zipf(n, theta)
