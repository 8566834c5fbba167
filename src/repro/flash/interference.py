"""Program-disturb (parasitic capacitance-coupling) error injection.

Section 3 of the paper: reprogramming a page perturbs the threshold
voltages of cells on *neighbouring wordlines* through capacitive coupling.
SLC's wide voltage windows absorb this; MLC's narrow windows do not, which
is why IPA on full MLC needs the pSLC or odd-MLC configuration.

The model is stochastic and deterministic-per-seed: each program or
reprogram of a victim wordline's neighbour draws a binomial number of
disturbed bits per ECC codeword at the mode's per-bit disturb rate.  The
chip accumulates these counts per page; reads compare them against the ECC
correction capability (:mod:`repro.flash.ecc`).

Every draw in the simulator goes through one kernel,
:meth:`DisturbModel.draw`.  It is numpy's own binomial sampler for this
regime (``p <= 0.5`` and ``n * p <= 30``: inversion, one uniform per
variate, ``X = 0`` iff ``U <= (1 - p) ** n``) replayed over a prefetched
block of the generator's uniforms, so the stream is bit-identical to
``Generator.binomial(bits, rate, size=(victims, codewords))`` of numpy 2
— locked by ``tests/flash/test_interference.py``, down to uniforms forced
onto every probability boundary.  The overwhelmingly common all-zero
draw is decided in O(1): at every refill each sampler records the
positions whose uniform exceeds its ``P(X = 0)`` ("hot" positions), and
a draw is all-zero iff the next hot position at or after its start lies
at or past its end — the same uniforms, the same comparison as
``max(uniforms[start:end]) <= zero_below``, without the slice.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

from repro.flash.ecc import EccConfig
from repro.flash.modes import ModeRules

#: Uniforms fetched from the generator per refill.
PREFETCH = 8192


class _Sampler:
    """Constants of numpy's inversion sampler for one ``(n, p)``, plus the
    hot positions of the current uniform block."""

    __slots__ = ("n", "p", "q", "zero_below", "bound", "hot", "next_hot")

    def __init__(self, n: int, p: float) -> None:
        self.n = n
        self.p = p
        self.q = q = 1.0 - p
        #: ``P(X = 0)``: a uniform at or below it maps to zero disturbed bits.
        #: ``log1p`` and not ``log(q)``, as in numpy: the two differ in the
        #: 14th digit at these rates, enough to move a boundary uniform.
        self.zero_below = math.exp(n * math.log1p(-p))
        mean = n * p
        #: The sampler starts over with a fresh uniform beyond this count.
        self.bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
        #: Positions of the current block whose uniform is above
        #: ``zero_below``, ascending, closed by the block length as a
        #: sentinel; rebuilt at every refill.
        self.hot: list[int] = [0]
        #: Index into ``hot`` of the first position at or after the start
        #: of this sampler's last all-zero test (only ever moves forward
        #: within a block, so the tests cost O(1) amortised).
        self.next_hot = 0


class DisturbModel:
    """Injects disturb errors into pages adjacent to a programmed page.

    Raises:
        ValueError: a disturb rate outside the inversion regime the kernel
            replays (``bits_per_codeword * rate > 30``).
    """

    def __init__(
        self,
        rules: ModeRules,
        ecc: EccConfig,
        page_size: int,
        seed: int = 0xF1A5,
    ) -> None:
        self._rng = np.random.default_rng(seed)
        self._n_codewords = ecc.codewords_for(page_size)
        bits = ecc.codeword_bytes * 8
        samplers: list[_Sampler | None] = []
        for rate in (rules.disturb_rate_program, rules.disturb_rate_reprogram):
            if bits * rate > 30.0:
                raise ValueError(
                    f"{rules.mode.value} mode: disturb rate {rate!r} gives "
                    f"{bits * rate:.3g} expected flips per {bits}-bit "
                    f"codeword; the disturb kernel covers at most 30"
                )
            # A zero rate draws nothing and consumes nothing, as in numpy.
            samplers.append(_Sampler(bits, rate) if rate else None)
        self._program, self._reprogram = samplers
        self._samplers = [s for s in samplers if s is not None]
        # Raw doubles, not a list of float objects: a quarter of the
        # memory per chip, and a refill is one memcpy.
        self._uniforms = array("d")
        self._filled = 0
        self._cursor = 0
        self.total_injected_bits = 0

    def disturb_counts(self, reprogram: bool) -> np.ndarray:
        """Bit-error increments per codeword for one neighbour page.

        Args:
            reprogram: True for an in-place append (higher disturb rate),
                False for a first program.

        Returns:
            Array of per-codeword disturbed-bit counts (often all zero).
        """
        rows = self.draw(reprogram, 1)
        if rows is None:
            return np.zeros(self._n_codewords, dtype=np.int64)
        return np.array(rows[0], dtype=np.int64)

    def draw(self, reprogram: bool, victims: int) -> list[list[int]] | None:
        """Disturbed-bit counts of one pulse, one row per victim page.

        Variates are drawn victim by victim, codeword by codeword, so row
        ``i`` is what the ``i``-th of ``victims`` sequential one-page draws
        would have returned.

        Returns:
            ``victims`` (>= 1) rows of per-codeword counts, or ``None`` when
            every count is zero — no victim changes then.
        """
        sampler = self._reprogram if reprogram else self._program
        if sampler is None:
            return None
        start = self._cursor
        end = start + victims * self._n_codewords
        if end <= self._filled:
            hot = sampler.hot
            i = sampler.next_hot
            while hot[i] < start:
                i += 1
            sampler.next_hot = i
            if hot[i] >= end:
                self._cursor = end
                return None
        return self._invert(sampler, victims)

    def _refill(self) -> array:
        """Fetch the next block of uniforms and index its hot positions."""
        block = self._rng.random(PREFETCH)
        self._uniforms = uniforms = array("d", block.tobytes())
        self._filled = filled = len(uniforms)
        for sampler in self._samplers:
            hot = np.flatnonzero(block > sampler.zero_below).tolist()
            hot.append(filled)
            sampler.hot = hot
            sampler.next_hot = 0
        return uniforms

    def _invert(self, sampler: _Sampler, victims: int) -> list[list[int]] | None:
        """The draw in full: numpy's ``random_binomial_inversion`` loop."""
        n, p, q = sampler.n, sampler.p, sampler.q
        zero_below, bound = sampler.zero_below, sampler.bound
        uniforms = self._uniforms
        cursor = self._cursor
        rows: list[list[int]] = []
        total = 0
        for _ in range(victims):
            row: list[int] = []
            for _ in range(self._n_codewords):
                x = -1
                while x < 0:
                    if cursor == len(uniforms):
                        uniforms = self._refill()
                        cursor = 0
                    u = uniforms[cursor]
                    cursor += 1
                    x = 0
                    px = zero_below
                    while u > px:
                        x += 1
                        if x > bound:
                            x = -1  # start this variate over, fresh uniform
                            break
                        u -= px
                        px = ((n - x + 1) * p * px) / (x * q)
                row.append(x)
                total += x
            rows.append(row)
        self._cursor = cursor
        if not total:
            return None
        self.total_injected_bits += total
        return rows


def victim_table(
    pages_per_block: int,
    rules: ModeRules,
) -> tuple[tuple[int, ...], ...]:
    """Precomputed :func:`neighbour_pages` for every page-in-block index.

    The victim sets depend only on geometry and mode, so the chip computes
    this table once at construction instead of rebuilding the neighbour
    list on every program operation.
    """
    return tuple(
        tuple(neighbour_pages(p, pages_per_block, rules))
        for p in range(pages_per_block)
    )


def neighbour_pages(
    page_in_block: int,
    pages_per_block: int,
    rules: ModeRules,
) -> list[int]:
    """Pages whose cells are coupled to ``page_in_block``'s wordline.

    On MLC silicon the paired page shares the *same* cells, and pages on
    the two adjacent wordlines couple capacitively.  On SLC each page is
    its own wordline, so only the adjacent wordlines matter.
    """
    victims: list[int] = []
    if rules.mode.is_mlc_silicon:
        pair = rules.paired_page(page_in_block)
        if pair is not None and 0 <= pair < pages_per_block:
            victims.append(pair)
        wordline = page_in_block // 2
        for neighbour_wl in (wordline - 1, wordline + 1):
            for candidate in (neighbour_wl * 2, neighbour_wl * 2 + 1):
                if 0 <= candidate < pages_per_block:
                    victims.append(candidate)
    else:
        for candidate in (page_in_block - 1, page_in_block + 1):
            if 0 <= candidate < pages_per_block:
                victims.append(candidate)
    return victims
