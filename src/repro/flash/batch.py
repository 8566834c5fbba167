"""Batched op-level execution: many Flash operations per Python call.

PR 2 made each primitive cheap; what remains in end-to-end profiles is the
*per-operation* interpreter cost — argument packing, method dispatch, dict
lookups on the clock — paid once per page op.  This module defines the
batch encoding consumed by :meth:`repro.flash.chip.FlashChip.execute_batch`
(and :meth:`repro.flash.device.FlashDevice.execute_batch`), which executes
a whole run of operations inside one call while keeping every simulated
outcome — counters, latencies, disturb draws, error points — bit-identical
to the per-op path (tests/flash/test_batch_equivalence.py).

A batch is a numpy structured array of :data:`OP_DTYPE` rows plus one
contiguous payload heap; each row addresses its data / OOB bytes as
``[pos, pos+len)`` slices of the heap.  ``*_len == -1`` means "absent"
(distinct from a present-but-empty buffer, which the chip rejects exactly
like the per-op path does).  :class:`OpBatch` is the cheap append-only
builder the FTLs and workload generators use; callers that already have
the arrays can pass them directly.

Besides the five host operations there is one device-internal command,
:data:`OP_COPY` (:meth:`OpBatch.copy`): move one page, data and OOB, to
an erased page of the same chip.  It is by definition
``read_page_with_oob(src)`` followed by ``program_page(dst, data, oob)``
— both are charged, counted and validated exactly as those two calls —
and carries no payload: the image goes from cell buffer to cell buffer.
Garbage collection relocates a victim's valid pages as one batch of
these rows (:mod:`repro.ftl.gc`).
"""

from __future__ import annotations

import numpy as np

#: Operation codes for the ``op`` field of :data:`OP_DTYPE`.
OP_READ = 0
OP_PROGRAM = 1
OP_REPROGRAM = 2
OP_PARTIAL = 3
OP_ERASE = 4
OP_COPY = 5

#: One encoded Flash operation.  ``target`` is a physical page number
#: (or a block index for :data:`OP_ERASE`); ``offset`` is the in-page
#: byte offset of a partial program; ``data_pos``/``data_len`` and
#: ``oob_pos``/``oob_len`` are payload-heap slices (``len == -1`` =
#: absent); ``oob_offset`` is the in-OOB offset of a partial program's
#: ECC-slot write.  An :data:`OP_COPY` row programs ``target`` from the
#: page whose physical page number is in ``data_pos`` — its data lives
#: on the chip, not in the heap — with both lengths absent.
OP_DTYPE = np.dtype(
    [
        ("op", np.uint8),
        ("target", np.int64),
        ("offset", np.int32),
        ("data_pos", np.int64),
        ("data_len", np.int32),
        ("oob_offset", np.int32),
        ("oob_pos", np.int64),
        ("oob_len", np.int32),
    ]
)


class OpBatch:
    """Append-only builder for one :data:`OP_DTYPE` batch.

    Rows are staged as plain tuples and payloads in one ``bytearray``;
    :meth:`arrays` materializes the numpy structured array once at
    execution time (single ``np.array`` call — far cheaper than per-row
    structured assignment).
    """

    __slots__ = ("_rows", "_payload")

    def __init__(self) -> None:
        self._rows: list[tuple[int, int, int, int, int, int, int, int]] = []
        self._payload = bytearray()

    def __len__(self) -> int:
        return len(self._rows)

    def _stage(self, data: bytes | None) -> tuple[int, int]:
        if data is None:
            return 0, -1
        pos = len(self._payload)
        self._payload += data
        return pos, len(data)

    def read(self, ppn: int) -> None:
        """Stage a full page read (result returned by ``execute_batch``)."""
        self._rows.append((OP_READ, ppn, 0, 0, -1, 0, 0, -1))

    def program(self, ppn: int, data: bytes, oob: bytes | None = None) -> None:
        """Stage a first-time program of an erased page."""
        pos, length = self._stage(data)
        opos, olen = self._stage(oob)
        self._rows.append((OP_PROGRAM, ppn, 0, pos, length, 0, opos, olen))

    def reprogram(self, ppn: int, data: bytes, oob: bytes | None = None) -> None:
        """Stage an in-place overwrite (charge-only-increases rule applies)."""
        pos, length = self._stage(data)
        opos, olen = self._stage(oob)
        self._rows.append((OP_REPROGRAM, ppn, 0, pos, length, 0, opos, olen))

    def partial(
        self,
        ppn: int,
        offset: int,
        payload: bytes,
        oob_offset: int | None = None,
        oob_payload: bytes | None = None,
    ) -> None:
        """Stage a range-local partial program (the write_delta primitive)."""
        pos, length = self._stage(payload)
        opos, olen = self._stage(oob_payload)
        self._rows.append(
            (
                OP_PARTIAL,
                ppn,
                offset,
                pos,
                length,
                -1 if oob_offset is None else oob_offset,
                opos,
                olen,
            )
        )

    def erase(self, block_idx: int) -> None:
        """Stage a block erase (``target`` is the block index)."""
        self._rows.append((OP_ERASE, block_idx, 0, 0, -1, 0, 0, -1))

    def copy(self, src_ppn: int, dst_ppn: int) -> None:
        """Stage a page move: read ``src_ppn`` (data + OOB), program it to
        the erased page ``dst_ppn``."""
        self._rows.append((OP_COPY, dst_ppn, 0, src_ppn, -1, 0, 0, -1))

    def arrays(self) -> tuple[np.ndarray, bytes]:
        """Materialize the ``(ops, payload)`` pair ``execute_batch`` takes."""
        ops = np.array(self._rows, dtype=OP_DTYPE)
        return ops, bytes(self._payload)
