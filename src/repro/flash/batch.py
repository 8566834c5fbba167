"""Batched op-level execution: many Flash operations per Python call.

This module defines the batch encoding and the one loop that runs it:
:func:`execute`, which is :meth:`repro.flash.chip.FlashChip.execute_batch`
and, over the channel schedulers,
:meth:`repro.flash.device.FlashDevice.execute_batch`.  The loop decodes a
row and calls the chip kernel's body for its kind — the same body a
per-op call runs — so every simulated outcome (counters, latencies,
disturb draws, error points, observer events) is that of the per-op
sequence by construction (tests/flash/test_batch_equivalence.py), and
only the caller's dispatch is saved.

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

from typing import Any

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


def execute(
    kernel: Any,
    ops: np.ndarray | OpBatch,
    payload: bytes | bytearray | memoryview | None = None,
) -> list[bytes]:
    """Execute an encoded run of operations through ``kernel``'s bodies.

    ``ops`` is either an :class:`OpBatch` builder or a numpy structured
    array of :data:`OP_DTYPE` rows with ``payload`` as its data heap.  Rows
    run strictly in order, each through the kernel's private body for its
    kind (``_sense``, ``_program``, ``_reprogram``, ``_partial``,
    ``_erase``): validation order, error types and messages, latency
    charges, stats counters, disturb draws and observer calls are those of
    the equivalent sequence of per-op calls.  Reads check ECC.  A copy row
    senses its source and programs the source page's own cell buffers to
    the destination.

    Returns:
        Data images of the ``OP_READ`` rows, in batch order.

    Raises:
        Exactly what the per-op sequence would raise, at the same
        operation.  Every *completed* operation (and, for an
        ECC-uncorrectable sense, the failed sense itself) has been charged
        when the error propagates, and the raised exception carries
        ``batch_ops_completed`` — the number of fully executed leading
        operations — and ``batch_results`` — the read results those
        completed operations produced.
    """
    heap: bytes | bytearray | memoryview
    if isinstance(ops, OpBatch):
        if payload is not None:
            raise ValueError("payload is implicit when passing an OpBatch")
        rows = ops._rows
        heap = memoryview(ops._payload)
    else:
        if ops.dtype.names != OP_DTYPE.names:
            raise ValueError(
                f"ops must be a structured array of OP_DTYPE rows, got "
                f"dtype {ops.dtype}"
            )
        # tolist() decodes every row to a plain tuple of Python ints in
        # one call; iterating np.void rows would box every field access.
        rows = ops.tolist()
        heap = memoryview(payload if payload is not None else b"")
    out: list[bytes] = []
    sense = kernel._sense
    program = kernel._program
    index = 0
    try:
        for index, (
            kind, target, offset, dpos, dlen, ooff, opos, olen,
        ) in enumerate(rows):
            if kind == OP_COPY:
                source = sense(dpos)
                program(target, source._data, source._oob)
            elif kind == OP_READ:
                out.append(bytes(sense(target)._data))
            elif kind == OP_ERASE:
                kernel._erase(target)
            else:
                data = heap[dpos : dpos + dlen] if dlen >= 0 else b""
                oob = heap[opos : opos + olen] if olen >= 0 else None
                if kind == OP_PROGRAM:
                    program(target, data, oob)
                elif kind == OP_REPROGRAM:
                    kernel._reprogram(target, data, oob)
                elif kind == OP_PARTIAL:
                    kernel._partial(
                        target, offset, data, None if ooff < 0 else ooff, oob
                    )
                else:
                    raise ValueError(f"unknown op code {kind}")
    except Exception as exc:
        exc.batch_ops_completed = index  # type: ignore[attr-defined]
        exc.batch_results = out  # type: ignore[attr-defined]
        raise
    return out
