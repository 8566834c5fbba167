"""Golden equivalence: execute_batch must match the per-op path bit-for-bit.

The same seeded mixed workload (the golden-fidelity mix: programs with
padding, partial programs with OOB appends, bit-clearing reprograms,
deliberate error paths, erases, reads) is recorded as a concrete op stream
from a per-op run, then replayed through ``FlashChip.execute_batch`` in
seeded variable-size chunks — via the :class:`OpBatch` builder and via raw
``OP_DTYPE`` numpy arrays.  Everything observable must be byte-identical:
page images, OOB, disturb ledgers, :class:`FlashStats`, the simulated
clock (value and per-category breakdown, compared as ``repr`` so a single
ulp diverges the test), error points, and read results.

Also covered: the instrumented compat path (write ledger / sanitizer
attached) and mid-batch error accounting (``batch_ops_completed``, charges
of completed ops committed before the raise).
"""

from __future__ import annotations

import hashlib
from dataclasses import fields

import numpy as np
import pytest

from repro.flash.batch import OP_DTYPE, OpBatch
from repro.flash.chip import FlashChip
from repro.flash.errors import (
    EccUncorrectableError,
    FlashError,
    IllegalProgramError,
    ModeViolationError,
    WriteToProgrammedPageError,
)
from repro.flash.geometry import FlashGeometry
from repro.flash.modes import FlashMode
from repro.flash.sanitize import Sanitizer
from repro.flash.stats import FlashStats
from repro.obs.ledger import WriteLedger

GEO = FlashGeometry(page_size=2048, oob_size=64, pages_per_block=16, blocks=8)
MODES = [FlashMode.SLC, FlashMode.MLC, FlashMode.PSLC, FlashMode.ODD_MLC]
N_OPS = 2000
SEED = 0x5EED


def _chip_digest(chip: FlashChip) -> str:
    """SHA-256 over every page's full physical state (golden-test hash)."""
    h = hashlib.sha256()
    for block in chip.blocks:
        for page in block.pages:
            h.update(page.raw_data())
            h.update(page.raw_oob())
            h.update(np.asarray(page._disturb, dtype=np.int64).tobytes())
            h.update(page.state.value.encode())
            h.update(page.program_passes.to_bytes(4, "little"))
            h.update(page.disturb_bits.to_bytes(8, "little"))
        h.update(block.erase_count.to_bytes(4, "little"))
    return h.hexdigest()


def _fingerprint(chip: FlashChip) -> dict:
    return {
        "stats": {
            f.name: getattr(chip.stats, f.name) for f in fields(FlashStats)
        },
        "clock_us": repr(chip.clock.now_us),
        "breakdown_us": {
            k: repr(v) for k, v in sorted(chip.clock.breakdown_us.items())
        },
        "digest": _chip_digest(chip),
        "disturb_injected": chip._disturb.total_injected_bits,
    }


def _record_op_stream(mode: FlashMode, seed: int = SEED) -> list[tuple]:
    """The golden workload as a concrete, replayable op-descriptor list.

    Each entry is ``(kind, args...)`` with fully materialized payloads, so
    a replay performs the exact same physical operations in the same order
    — including the ones that are *expected to fail* (their error class
    rides along for the replay driver to assert on).
    """
    rng = np.random.default_rng(seed ^ 0xA5A5)
    chip = FlashChip(GEO, mode=mode, seed=seed)  # scratch: drives generation
    usable = list(chip.usable_pages_in_block())
    append_cursor: dict[int, int] = {}
    oob_cursor: dict[int, int] = {}
    stream: list[tuple] = []

    def random_ppn() -> int:
        block = int(rng.integers(0, GEO.blocks))
        page = usable[int(rng.integers(0, len(usable)))]
        return GEO.make_ppn(block, page)

    for _ in range(N_OPS):
        op = int(rng.integers(0, 100))
        ppn = random_ppn()
        if op < 30:
            size = int(rng.integers(1, GEO.page_size + 1))
            payload = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
            try:
                chip.program_page(ppn, payload)
                append_cursor[ppn] = size
                oob_cursor[ppn] = 0
                stream.append(("program", ppn, payload, None, None))
            except (WriteToProgrammedPageError, ModeViolationError) as exc:
                stream.append(("program", ppn, payload, None, type(exc)))
        elif op < 50:
            offset = append_cursor.get(ppn, 64)
            length = int(rng.integers(1, 33))
            if offset + length > GEO.page_size:
                continue
            payload = (
                rng.integers(0, 256, size=length, dtype=np.uint8) & 0x7F
            ).tobytes()
            with_oob = bool(rng.integers(0, 2))
            oob_off = oob_cursor.get(ppn, 0)
            oob_payload = None
            oob_offset = None
            if with_oob and oob_off + 8 <= GEO.oob_size:
                oob_offset = oob_off
                oob_payload = rng.integers(
                    0, 256, size=8, dtype=np.uint8
                ).tobytes()
            try:
                chip.partial_program(
                    ppn,
                    offset,
                    payload,
                    oob_offset=oob_offset,
                    oob_payload=oob_payload,
                )
                append_cursor[ppn] = offset + length
                if oob_payload is not None:
                    oob_cursor[ppn] = oob_off + 8
                err = None
            except (IllegalProgramError, ModeViolationError) as exc:
                err = type(exc)
            stream.append(
                ("partial", ppn, offset, payload, oob_offset, oob_payload, err)
            )
        elif op < 60:
            current = chip.page_at(ppn).raw_data()
            mask = rng.integers(0, 256, size=len(current), dtype=np.uint8)
            image = (np.frombuffer(current, dtype=np.uint8) & mask).tobytes()
            try:
                chip.reprogram_page(ppn, image)
                append_cursor[ppn] = GEO.page_size
                err = None
            except (IllegalProgramError, ModeViolationError) as exc:
                err = type(exc)
            stream.append(("reprogram", ppn, image, None, err))
        elif op < 70:
            try:
                chip.partial_program(ppn, 0, b"\x00\x01\x02\x03")
                append_cursor.setdefault(ppn, 4)
                err = None
            except (IllegalProgramError, ModeViolationError) as exc:
                err = type(exc)
            stream.append(("partial", ppn, 0, b"\x00\x01\x02\x03", None, None, err))
        elif op < 80:
            block = int(rng.integers(0, GEO.blocks))
            chip.erase_block(block)
            base = block * GEO.pages_per_block
            for p in range(GEO.pages_per_block):
                append_cursor.pop(base + p, None)
                oob_cursor.pop(base + p, None)
            stream.append(("erase", block))
        else:
            try:
                chip.read_page(ppn)
                err = None
            except EccUncorrectableError as exc:
                err = type(exc)
            stream.append(("read", ppn, err))
    return stream


def _replay_per_op(chip: FlashChip, stream: list[tuple]) -> list[bytes]:
    """Reference replay through the per-op public API."""
    reads: list[bytes] = []
    for entry in stream:
        kind = entry[0]
        if kind == "read":
            _, ppn, err = entry
            if err is None:
                reads.append(chip.read_page(ppn))
            else:
                with pytest.raises(err):
                    chip.read_page(ppn)
        elif kind == "erase":
            chip.erase_block(entry[1])
        elif kind == "program":
            _, ppn, data, oob, err = entry
            if err is None:
                chip.program_page(ppn, data, oob)
            else:
                with pytest.raises(err):
                    chip.program_page(ppn, data, oob)
        elif kind == "reprogram":
            _, ppn, data, oob, err = entry
            if err is None:
                chip.reprogram_page(ppn, data, oob)
            else:
                with pytest.raises(err):
                    chip.reprogram_page(ppn, data, oob)
        else:
            _, ppn, offset, data, oob_off, oob, err = entry
            if err is None:
                chip.partial_program(
                    ppn, offset, data, oob_offset=oob_off, oob_payload=oob
                )
            else:
                with pytest.raises(err):
                    chip.partial_program(
                        ppn, offset, data, oob_offset=oob_off, oob_payload=oob
                    )
    return reads


def _stage(batch: OpBatch, entry: tuple) -> None:
    kind = entry[0]
    if kind == "read":
        batch.read(entry[1])
    elif kind == "erase":
        batch.erase(entry[1])
    elif kind == "program":
        batch.program(entry[1], entry[2], entry[3])
    elif kind == "reprogram":
        batch.reprogram(entry[1], entry[2], entry[3])
    else:
        _, ppn, offset, data, oob_off, oob, _err = entry
        batch.partial(ppn, offset, data, oob_offset=oob_off, oob_payload=oob)


def _replay_batched(
    chip: FlashChip,
    stream: list[tuple],
    seed: int,
    as_arrays: bool,
    chunk_max: int = 200,
) -> list[bytes]:
    """Replay through execute_batch in seeded variable-size chunks.

    Ops expected to fail abort their batch; the driver asserts the error
    class, checks ``batch_ops_completed`` points at the failing op, and
    resumes with the remainder of the chunk — exactly the state machine an
    FTL caller would run.
    """
    rng = np.random.default_rng(seed ^ 0xBA7C)
    reads: list[bytes] = []
    i = 0
    while i < len(stream):
        n = int(rng.integers(1, chunk_max + 1))
        chunk = stream[i : i + n]
        i += len(chunk)
        start = 0
        while start < len(chunk):
            batch = OpBatch()
            for entry in chunk[start:]:
                _stage(batch, entry)
            expected = [
                e[-1] if e[0] != "erase" else None for e in chunk[start:]
            ]
            try:
                if as_arrays:
                    ops, payload = batch.arrays()
                    assert len(batch) == len(ops)
                    reads.extend(chip.execute_batch(ops, payload))
                else:
                    reads.extend(chip.execute_batch(batch))
                break
            except FlashError as exc:
                done = exc.batch_ops_completed
                assert expected[done] is type(exc), (
                    f"batch failed at op {start + done} with {type(exc)}, "
                    f"expected {expected[done]}"
                )
                # A failed read returns no data but was partially charged;
                # every earlier op in the batch completed fully and its
                # read results ride on the exception.
                reads.extend(exc.batch_results)
                start += done + 1
    return reads


@pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
@pytest.mark.parametrize("as_arrays", [False, True], ids=["opbatch", "ndarray"])
def test_batched_path_is_bit_identical(mode, as_arrays):
    stream = _record_op_stream(mode)
    ref_chip = FlashChip(GEO, mode=mode, seed=SEED)
    ref_reads = _replay_per_op(ref_chip, stream)
    batch_chip = FlashChip(GEO, mode=mode, seed=SEED)
    batch_reads = _replay_batched(batch_chip, stream, SEED, as_arrays)
    assert _fingerprint(batch_chip) == _fingerprint(ref_chip)
    assert batch_reads == ref_reads


@pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
def test_interleaving_per_op_calls_and_batches_on_one_chip(mode):
    """Per-op calls and ``execute_batch`` alternate on ONE chip, so both
    draw from one disturb stream: a draw site that bypassed the shared
    :meth:`DisturbModel.draw` kernel (its prefetched uniforms) would pull
    the two out of step with the all-per-op chip."""
    stream = _record_op_stream(mode)
    ref_chip = FlashChip(GEO, mode=mode, seed=SEED)
    ref_reads = _replay_per_op(ref_chip, stream)
    mixed_chip = FlashChip(GEO, mode=mode, seed=SEED)
    mixed_reads: list[bytes] = []
    rng = np.random.default_rng(SEED ^ 0x317E)
    batched = False
    i = 0
    while i < len(stream):
        chunk = stream[i : i + int(rng.integers(1, 40))]
        i += len(chunk)
        if batched:
            mixed_reads += _replay_batched(mixed_chip, chunk, SEED + i, False, 15)
        else:
            mixed_reads += _replay_per_op(mixed_chip, chunk)
        batched = not batched
    assert _fingerprint(mixed_chip) == _fingerprint(ref_chip)
    assert mixed_reads == ref_reads


@pytest.mark.parametrize("mode", [FlashMode.SLC, FlashMode.MLC])
def test_batched_path_matches_under_ledger_and_sanitizer(mode):
    """Instrumentation forces the compat path; attribution must match too."""
    stream = _record_op_stream(mode, seed=SEED ^ 0x77)

    def instrumented_chip() -> tuple[FlashChip, WriteLedger]:
        chip = FlashChip(GEO, mode=mode, seed=SEED ^ 0x77)
        chip.sanitizer = Sanitizer()
        ledger = WriteLedger()
        ledger.watch_chip(chip)
        chip.ledger = ledger
        return chip, ledger

    ref_chip, ref_ledger = instrumented_chip()
    ref_reads = _replay_per_op(ref_chip, stream)
    batch_chip, batch_ledger = instrumented_chip()
    batch_reads = _replay_batched(batch_chip, stream, SEED ^ 0x77, False)
    assert _fingerprint(batch_chip) == _fingerprint(ref_chip)
    assert batch_reads == ref_reads
    assert batch_ledger.totals() == ref_ledger.totals()
    assert batch_ledger.conservation_errors() == []


def test_mid_batch_error_commits_completed_accounting():
    """A failing op mid-batch must leave exactly the per-op sequence state."""
    chip = FlashChip(GEO, mode=FlashMode.SLC, seed=1)
    payload = bytes(range(256)) * 8
    batch = OpBatch()
    batch.program(0, payload)
    batch.read(0)
    batch.program(0, payload)  # fails: double program
    batch.program(1, payload)  # never reached

    ref = FlashChip(GEO, mode=FlashMode.SLC, seed=1)
    ref.program_page(0, payload)
    ref.read_page(0)
    with pytest.raises(WriteToProgrammedPageError):
        ref.program_page(0, payload)

    with pytest.raises(WriteToProgrammedPageError) as excinfo:
        chip.execute_batch(batch)
    assert excinfo.value.batch_ops_completed == 2
    assert _fingerprint(chip) == _fingerprint(ref)


def test_uncorrectable_read_mid_batch_charges_the_sense():
    """The failed sense itself is charged, exactly like FlashChip._read."""
    t = FlashChip(GEO, mode=FlashMode.SLC, seed=1).ecc.correctable_bits

    def broken_chip() -> FlashChip:
        chip = FlashChip(GEO, mode=FlashMode.SLC, seed=1)
        chip.program_page(0, b"\x12" * GEO.page_size)
        counts = np.zeros(
            chip.ecc.codewords_for(GEO.page_size), dtype=np.int64
        )
        counts[0] = t + 1
        chip.page_at(0).add_disturb(counts)
        return chip

    ref = broken_chip()
    with pytest.raises(EccUncorrectableError):
        ref.read_page(0)

    chip = broken_chip()
    batch = OpBatch()
    batch.read(0)
    batch.read(0)  # never reached
    with pytest.raises(EccUncorrectableError) as excinfo:
        chip.execute_batch(batch)
    assert excinfo.value.batch_ops_completed == 0
    assert _fingerprint(chip) == _fingerprint(ref)
    assert chip.stats.page_reads == ref.stats.page_reads == 1
    assert chip.stats.ecc_uncorrectable_events == 1


def test_empty_batch_is_a_no_op():
    chip = FlashChip(GEO, mode=FlashMode.SLC, seed=1)
    before = _fingerprint(chip)
    assert chip.execute_batch(OpBatch()) == []
    empty = np.empty(0, dtype=OP_DTYPE)
    assert chip.execute_batch(empty, b"") == []
    assert _fingerprint(chip) == before
