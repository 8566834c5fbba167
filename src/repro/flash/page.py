"""One physical Flash page: data area, OOB area, and disturb bookkeeping.

A page's life cycle is ``ERASED -> PROGRAMMED -> (reprogrammed)* -> ERASED``.
The page object enforces the transition rules; the chip layers addressing,
latency, interference and statistics on top.

Performance notes (the NAND data path is the simulator's hottest code):

* ``_data`` / ``_oob`` are *stable* ``bytearray`` buffers — never replaced,
  never resized — so ``_data_np`` / ``_oob_np`` (``np.frombuffer`` views of
  the same memory) stay valid for the page's whole lifetime.  Legality
  checks run against these views with zero copies; mutation happens via
  slice assignment into the same buffers.
* ``erase()`` is a vectorized fill, not a per-byte loop.
* Disturb totals are tracked incrementally (plain ints) so the read path
  never reduces the per-codeword array.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.flash.cellmodel import (
    ERASED_BYTE,
    first_illegal_offset,
    slc_transition_legal,
)
from repro.flash.ecc import EccConfig
from repro.flash.errors import (
    EccUncorrectableError,
    IllegalProgramError,
    WriteToProgrammedPageError,
)

_ERASED_CHAR = bytes([ERASED_BYTE])


class PageState(enum.Enum):
    """Programming state of a physical page."""

    ERASED = "erased"
    PROGRAMMED = "programmed"


class PhysicalPage:
    """Data + OOB cell arrays of one page, with transition enforcement.

    The stored image is always the *pristine* (as-programmed) bytes;
    disturb errors are tracked as per-codeword bit-error counts rather
    than actual flips, so the ECC model can decide whether a read is
    correctable without storing a second copy of the data.
    """

    __slots__ = (
        "_data",
        "_oob",
        "_data_np",
        "_oob_np",
        "state",
        "program_passes",
        "_disturb",
        "_disturb_total",
        "_disturb_worst",
        "_ecc",
    )

    def __init__(self, page_size: int, oob_size: int, ecc: EccConfig) -> None:
        self._data = bytearray(page_size)
        self._oob = bytearray(oob_size)
        # Writable zero-copy views over the stable buffers above.
        self._data_np = np.frombuffer(self._data, dtype=np.uint8)
        self._oob_np = np.frombuffer(self._oob, dtype=np.uint8)
        self._data_np.fill(ERASED_BYTE)
        self._oob_np.fill(ERASED_BYTE)
        self.state = PageState.ERASED
        self.program_passes = 0
        self._ecc = ecc
        self._disturb = np.zeros(ecc.codewords_for(page_size), dtype=np.int64)
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

        Valid for the page's lifetime (the backing buffer is stable);
        callers that need the bytes past the next mutation must copy.
        """
        return memoryview(self._data).toreadonly()

    def oob_view(self) -> memoryview:
        """Read-only zero-copy view of the pristine OOB image."""
        return memoryview(self._oob).toreadonly()

    def erase(self) -> None:
        """Reset every cell (data and OOB) to the erased state."""
        self._data_np.fill(ERASED_BYTE)
        self._oob_np.fill(ERASED_BYTE)
        self.state = PageState.ERASED
        self.program_passes = 0
        if self._disturb_total:
            # counts are non-negative, so total == 0 implies all-zero.
            self._disturb[:] = 0
            self._disturb_total = 0
            self._disturb_worst = 0

    def program(
        self,
        data: bytes | memoryview,
        oob: bytes | memoryview | None = None,
    ) -> None:
        """First-time program of an erased page.

        Raises:
            WriteToProgrammedPageError: if the page is not erased; use
                :meth:`reprogram` to overwrite deliberately.
        """
        if self.state is not PageState.ERASED:
            raise WriteToProgrammedPageError(
                "plain program of a programmed page; reprogram() is explicit"
            )
        self._check_sizes(data, oob)
        self._data[:] = data
        if oob is not None:
            self._oob[:] = oob
        self.state = PageState.PROGRAMMED
        self.program_passes = 1

    def reprogram(
        self,
        data: bytes | memoryview,
        oob: bytes | memoryview | None = None,
    ) -> None:
        """Overwrite without erase — legal only if no bit goes 0 -> 1.

        This is the physical operation behind In-Place Appends: ISPP can
        raise cell charges, so any transition that only clears bits is
        reachable from the current image (paper Section 2).

        Raises:
            IllegalProgramError: if any bit (data or OOB) would need to
                return to 1, i.e. the transition requires an erase.
        """
        self._check_sizes(data, oob)
        if not slc_transition_legal(self._data_np, data):
            off = first_illegal_offset(self._data_np, data)
            raise IllegalProgramError(
                f"reprogram needs erase: data byte {off} sets a cleared bit",
                first_bad_offset=off,
            )
        if oob is not None and not slc_transition_legal(self._oob_np, oob):
            off = first_illegal_offset(self._oob_np, oob)
            raise IllegalProgramError(
                f"reprogram needs erase: OOB byte {off} sets a cleared bit",
                first_bad_offset=off,
            )
        self._data[:] = data
        if oob is not None:
            self._oob[:] = oob
        self.state = PageState.PROGRAMMED
        self.program_passes += 1

    def check_append_target(self, offset: int, length: int) -> None:
        """Raise unless ``[offset, offset+length)`` of the data area is erased.

        Range-local precondition of :meth:`append_range`; the caller is
        responsible for bounds checking.

        Raises:
            IllegalProgramError: if any byte in the range is programmed.
        """
        # bytes.strip(b"\xff") is empty iff every byte is 0xFF: strip can
        # only remove boundary bytes, so any interior non-FF byte survives.
        # C-speed for tiny append ranges, no numpy dispatch overhead.
        if self._data[offset : offset + length].strip(_ERASED_CHAR):
            raise IllegalProgramError(
                f"append target [{offset}, {offset + length}) is not erased",
                first_bad_offset=offset,
            )

    def append_range(
        self,
        offset: int,
        payload: bytes,
        oob_offset: int | None = None,
        oob_payload: bytes | None = None,
    ) -> None:
        """Program only ``[offset, offset+len(payload))`` (plus an OOB range).

        The range-local fast path behind ``write_delta``: equivalent to
        rebuilding the full page image and calling :meth:`reprogram`, but
        validates and writes only the touched ranges.  The data range must
        already be verified erased via :meth:`check_append_target`; the OOB
        range only needs a charge-increasing transition (matching the full
        reprogram legality rule it replaces).

        Raises:
            IllegalProgramError: if the OOB range would set a cleared bit.
        """
        if oob_payload is not None and oob_offset is not None:
            oob_end = oob_offset + len(oob_payload)
            old = self._oob[oob_offset:oob_end]
            # An ECC slot is 8 bytes: one integer AND-NOT, where a numpy
            # dispatch on so small an operand costs more than the append.
            if int.from_bytes(oob_payload, "little") & ~int.from_bytes(
                old, "little"
            ):
                off = oob_offset + first_illegal_offset(old, oob_payload)
                raise IllegalProgramError(
                    f"reprogram needs erase: OOB byte {off} sets a cleared bit",
                    first_bad_offset=off,
                )
            self._oob[oob_offset:oob_end] = oob_payload
        self._data[offset : offset + len(payload)] = payload
        self.state = PageState.PROGRAMMED
        self.program_passes += 1

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
        its ECC slot incomplete and therefore detectable.
        """
        k = min(cut, len(payload))
        if k > 0:
            self._data[offset : offset + k] = payload[:k]
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
        cell arrays plus the state/disturb bookkeeping.
        """
        return (
            bytes(self._data),
            bytes(self._oob),
            self.state,
            self.program_passes,
            self._disturb.copy(),
            self._disturb_total,
            self._disturb_worst,
        )

    def restore_image(self, snap: tuple) -> None:
        """Revert the page to a :meth:`snapshot_image` pre-image."""
        (data, oob, state, passes, disturb, total, worst) = snap
        self._data[:] = data
        self._oob[:] = oob
        self.state = state
        self.program_passes = passes
        self._disturb[:] = disturb
        self._disturb_total = total
        self._disturb_worst = worst

    def raw_data(self) -> bytes:
        """Pristine data image, bypassing the ECC check (for legality tests)."""
        return bytes(self._data)

    def raw_oob(self) -> bytes:
        """Pristine OOB image, bypassing the ECC check."""
        return bytes(self._oob)

    def read(self, check_ecc: bool = True) -> tuple[bytes, bytes, int]:
        """Read data and OOB through the ECC model.

        Returns:
            ``(data, oob, corrected_bits)`` where ``corrected_bits`` is the
            number of disturbed bits the ECC had to correct on this read.

        Raises:
            EccUncorrectableError: if any codeword's accumulated disturb
                count exceeds the correction capability.
        """
        corrected = 0
        if check_ecc and self.state is PageState.PROGRAMMED:
            worst = self._disturb_worst
            if worst > self._ecc.correctable_bits:
                raise EccUncorrectableError(
                    f"codeword with {worst} bit errors exceeds "
                    f"t={self._ecc.correctable_bits}",
                    bit_errors=worst,
                )
            corrected = self._disturb_total
        return bytes(self._data), bytes(self._oob), corrected

    def add_disturb(self, counts: np.ndarray) -> None:
        """Accumulate disturb bit-error counts (only if programmed)."""
        if self.state is PageState.PROGRAMMED:
            self._disturb += counts
            self._disturb_total += int(counts.sum())
            self._disturb_worst = int(self._disturb.max())

    def _check_sizes(
        self,
        data: bytes | memoryview,
        oob: bytes | memoryview | None,
    ) -> None:
        if len(data) != len(self._data):
            raise ValueError(
                f"data must be exactly {len(self._data)} bytes, got {len(data)}"
            )
        if oob is not None and len(oob) != len(self._oob):
            raise ValueError(
                f"oob must be exactly {len(self._oob)} bytes, got {len(oob)}"
            )
