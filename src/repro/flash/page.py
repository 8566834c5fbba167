"""One physical Flash page: data area, OOB area, and disturb bookkeeping.

A page's life cycle is ``ERASED -> PROGRAMMED -> (reprogrammed)* -> ERASED``.
The page object is cell state only; the transition rules, addressing,
latency, interference and statistics live in the chip's kernel
(:class:`~repro.flash.chip.FlashChip`), one body per operation.

Memory: a page costs what it holds.  An erased page references the
shared :func:`erased_image` bytes for its data and OOB areas and the
shared read-only all-zero :func:`undisturbed` array, so a chip that is
never programmed costs a few pointers per page (the paper's full
OpenSSD Jasmine board fits in well under 100 MiB).  A page gets private
``bytearray`` cells only on the erased -> programmed edge — a program,
or the first reprogram, partial program or torn program on an erased
page — and a private disturb array only at its first
:meth:`PhysicalPage.add_disturb`.  An erase re-points every page at the
shared images (see :meth:`~repro.flash.block.EraseBlock.erase`).

Performance notes (the NAND data path is the simulator's hottest code):

* A ``PROGRAMMED`` page always owns its ``_data`` / ``_oob`` bytearrays,
  and reprograms and partial programs mutate them by slice assignment:
  the in-place append path allocates nothing.  A page keeps no numpy
  view of them (two per page would cost ~14 MB on a 16 k-page chip); the
  one body that wants numpy, the reprogram legality check, makes its
  zero-copy views per call.
* An ``ERASED`` page's buffers may be immutable ``bytes``, so nothing
  writes them in place: the first pulse on the page replaces them.  So a
  :meth:`PhysicalPage.data_view` is valid until the page's next program
  or erase, not for the page's lifetime.
* Disturb totals are tracked incrementally (plain ints) so the read path
  never reduces the per-codeword array.
"""

from __future__ import annotations

import enum
from functools import cache

import numpy as np

from repro.flash.cellmodel import ERASED_BYTE
from repro.flash.ecc import EccConfig


@cache
def erased_image(size: int) -> bytes:
    """``size`` erased (0xFF) bytes, one shared object per size."""
    return bytes([ERASED_BYTE]) * size


@cache
def undisturbed(codewords: int) -> np.ndarray:
    """``codewords`` zero disturb counts: one shared read-only array per size."""
    counts = np.zeros(codewords, dtype=np.int64)
    counts.flags.writeable = False
    return counts


class PageState(enum.Enum):
    """Programming state of a physical page."""

    ERASED = "erased"
    PROGRAMMED = "programmed"


class PhysicalPage:
    """Data + OOB cell arrays of one page, with disturb bookkeeping.

    The stored image is always the *pristine* (as-programmed) bytes;
    disturb errors are tracked as per-codeword bit-error counts rather
    than actual flips, so the ECC model can decide whether a read is
    correctable without storing a second copy of the data.
    """

    __slots__ = (
        "_data",
        "_oob",
        "state",
        "program_passes",
        "_disturb",
        "_disturb_total",
        "_disturb_worst",
    )

    # Declared as the private bytearrays a PROGRAMMED page always owns,
    # the only buffers anything writes into.  An ERASED page may hold
    # immutable ``bytes`` instead (normally the shared erased images).
    _data: bytearray
    _oob: bytearray

    def __init__(self, page_size: int, oob_size: int, ecc: EccConfig) -> None:
        self._data = erased_image(page_size)  # type: ignore[assignment]
        self._oob = erased_image(oob_size)  # type: ignore[assignment]
        self.state = PageState.ERASED
        self.program_passes = 0
        self._disturb = undisturbed(ecc.codewords_for(page_size))
        self._disturb_total = 0
        self._disturb_worst = 0

    @property
    def page_size(self) -> int:
        return len(self._data)

    @property
    def oob_size(self) -> int:
        return len(self._oob)

    @property
    def disturb_bits(self) -> int:
        """Total disturbed bits currently accumulated on this page."""
        return self._disturb_total

    def data_view(self) -> memoryview:
        """Read-only zero-copy view of the pristine data image.

        Valid until the page's next program or erase (either may replace
        the buffer); callers that need the bytes past the next mutation
        must copy.
        """
        return memoryview(self._data).toreadonly()

    def oob_view(self) -> memoryview:
        """Read-only zero-copy view of the pristine OOB image."""
        return memoryview(self._oob).toreadonly()

    def _own(self) -> None:
        """Give an ERASED page private copies of its cells before a write."""
        if self.state is PageState.ERASED:
            self._data = bytearray(self._data)
            self._oob = bytearray(self._oob)

    def apply_torn_program(
        self, data: bytes, oob: bytes | None, cut: int
    ) -> None:
        """Persist a power-loss-interrupted (re)program: only a prefix lands.

        Fault-injection only (:mod:`repro.fault`).  Models the physical
        outcome of losing power mid-pulse at byte granularity: the first
        ``cut`` bytes of the ``data || oob`` stream reach the cells, the
        rest keep their previous charge.  Because the OOB trails the data
        area, any tear leaves the OOB metadata incomplete — which is what
        lets mount-time scans detect and discard torn pages.
        """
        if cut > 0:
            self._own()
        k = min(cut, len(data))
        if k > 0:
            self._data[0:k] = data[:k]
            self.state = PageState.PROGRAMMED
            self.program_passes += 1
        rem = cut - len(data)
        if oob is not None and rem > 0:
            self._oob[0 : min(rem, len(oob))] = oob[: min(rem, len(oob))]

    def apply_torn_range(
        self,
        offset: int,
        payload: bytes,
        oob_offset: int | None,
        oob_payload: bytes | None,
        cut: int,
    ) -> None:
        """Persist a power-loss-interrupted partial program (see above).

        The tear applies to the ``payload || oob_payload`` transfer: the
        delta bytes land first, the per-delta OOB ECC slot only if the
        whole payload made it — so a torn ``write_delta`` always leaves
        its ECC slot incomplete and therefore detectable.  Once a byte
        has landed the page is ``PROGRAMMED``, as after the whole pulse,
        so a mount scan never mistakes it for free space.
        """
        if cut > 0:
            self._own()
        k = min(cut, len(payload))
        if k > 0:
            self._data[offset : offset + k] = payload[:k]
            self.state = PageState.PROGRAMMED
            self.program_passes += 1
        rem = cut - len(payload)
        if oob_payload is not None and oob_offset is not None and rem > 0:
            take = min(rem, len(oob_payload))
            self._oob[oob_offset : oob_offset + take] = oob_payload[:take]

    def snapshot_image(self) -> tuple:
        """Full pre-image of the page (fault injection only).

        Captured by the multi-channel device before issuing an array op
        so a later :meth:`restore_image` can revert the op if power is
        lost while it is still in flight on its channel.  Copies both
        cell arrays (an ERASED page's immutable buffers are kept as they
        are) plus the state/disturb bookkeeping.
        """
        return (
            bytes(self._data),
            bytes(self._oob),
            self.state,
            self.program_passes,
            self._disturb.copy() if self._disturb_total else self._disturb,
            self._disturb_total,
            self._disturb_worst,
        )

    def restore_image(self, snap: tuple) -> None:
        """Revert the page to a :meth:`snapshot_image` pre-image.

        An ERASED pre-image goes back to its immutable buffers (the
        shared erased image for a page that held it); a PROGRAMMED one
        gets private copies.
        """
        (data, oob, state, passes, disturb, total, worst) = snap
        if state is PageState.ERASED:
            self._data = data
            self._oob = oob
        else:
            self._data = bytearray(data)
            self._oob = bytearray(oob)
        self.state = state
        self.program_passes = passes
        self._disturb = disturb.copy() if total else disturb
        self._disturb_total = total
        self._disturb_worst = worst

    def raw_data(self) -> bytes:
        """Pristine data image, bypassing the ECC check (for legality tests)."""
        return bytes(self._data)

    def raw_oob(self) -> bytes:
        """Pristine OOB image, bypassing the ECC check."""
        return bytes(self._oob)

    def add_disturb(self, counts: np.ndarray) -> None:
        """Accumulate disturb bit-error counts (only if programmed).

        A page with no disturb yet holds all-zero counts (often the
        shared read-only array), so its first counts become a new array.
        """
        if self.state is PageState.PROGRAMMED:
            if self._disturb_total:
                self._disturb += counts
            else:
                self._disturb = self._disturb + counts
            self._disturb_total += int(counts.sum())
            self._disturb_worst = int(self._disturb.max())
