"""Golden equivalence: execute_batch's page moves match the per-op path.

``execute_batch(moves)`` takes ``(src_ppn, dst_ppn)`` pairs; a move is by
definition ``read_page_with_oob(src)`` + ``program_page(dst, data, oob)``.
The same seeded mixed workload (the golden-fidelity mix: programs with
padding, partial programs with OOB appends, bit-clearing reprograms,
deliberate error paths, erases, reads and page moves) is recorded as a
concrete op stream from a per-op run, then replayed with every run of
consecutive moves as ``execute_batch`` calls, cut at seeded
variable-size chunk boundaries, with the pairs given either as a list of
tuples (``opbatch``, what GC builds) or as an ``(n, 2)`` integer array
(``ndarray``).  Everything observable must be
byte-identical: page images, OOB, disturb ledgers, :class:`FlashStats`,
the simulated clock (value and per-category breakdown, compared as
``repr`` so a single ulp diverges the test), error points, and read
results.

The move loop and the per-op calls run the same kernel bodies, so what
these tests pin is the loop: the composition of sense and program, and
error bookkeeping.  Also covered: the same outcome with the observers
attached (write ledger / sanitizer / armed fault injector) as without, a
4-channel overlapped :class:`FlashDevice`, and mid-run error accounting
(``batch_ops_completed``, charges of completed moves made before the
raise), with one directed case per point at which a move can fail.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields
from itertools import groupby
from unittest import mock

import numpy as np
import pytest

from repro.fault.injector import FaultInjector
from repro.flash import interference
from repro.flash.chip import FlashChip
from repro.flash.device import FlashDevice
from repro.flash.errors import (
    BadBlockError,
    EccUncorrectableError,
    FlashError,
    IllegalAddressError,
    IllegalProgramError,
    ModeViolationError,
    WriteToProgrammedPageError,
)
from repro.flash.geometry import FlashGeometry
from repro.flash.modes import FlashMode
from repro.flash.page import PageState
from repro.flash.sanitize import Sanitizer
from repro.flash.stats import FlashStats
from repro.obs.ledger import WriteLedger
from tests.flash._rng import force_next_uniform

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


def _bare_chip(mode: FlashMode, seed: int) -> FlashChip:
    return FlashChip(GEO, mode=mode, seed=seed)


def _four_channels(mode: FlashMode, seed: int) -> FlashDevice:
    return FlashDevice(GEO, channels=4, mode=mode, seed=seed)


def _copy(chip, src: int, dst: int) -> None:
    """What a move is, spelled with the per-op API."""
    data, oob = chip.read_page_with_oob(src)
    chip.program_page(dst, data, oob)


def _record_op_stream(
    mode: FlashMode, seed: int = SEED, factory=_bare_chip
) -> list[tuple]:
    """The golden workload as a concrete, replayable op-descriptor list.

    Each entry is ``(kind, args...)`` with fully materialized payloads, so
    a replay performs the exact same physical operations in the same order
    — including the ones that are *expected to fail* (their error class
    rides along for the replay driver to assert on).
    """
    rng = np.random.default_rng(seed ^ 0xA5A5)
    chip = factory(mode, seed)  # scratch: drives generation
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
        elif op < 90:
            try:
                chip.read_page(ppn)
                err = None
            except EccUncorrectableError as exc:
                err = type(exc)
            stream.append(("read", ppn, err))
        else:
            # A run of one to four page moves, each from a random page.
            # About half aim at an erased page of a random block (if it
            # has one), so that moves land as well as bounce off
            # programmed destinations.
            for _ in range(int(rng.integers(1, 5))):
                src, dst = random_ppn(), random_ppn()
                if rng.integers(0, 2):
                    base = dst - dst % GEO.pages_per_block
                    erased = [
                        base + p
                        for p in usable
                        if chip.page_state(base + p) is PageState.ERASED
                    ]
                    dst = erased[0] if erased else dst
                try:
                    _copy(chip, src, dst)
                    append_cursor[dst] = append_cursor.get(src, GEO.page_size)
                    oob_cursor[dst] = oob_cursor.get(src, 0)
                    err = None
                except (EccUncorrectableError, WriteToProgrammedPageError) as exc:
                    err = type(exc)
                stream.append(("copy", src, dst, err))
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
        elif kind == "copy":
            _, src, dst, err = entry
            if err is None:
                _copy(chip, src, dst)
            else:
                with pytest.raises(err):
                    _copy(chip, src, dst)
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


def _moves(pending: list[tuple], as_array: bool):
    """The ``(src, dst)`` pairs of ``copy`` entries: a list of tuples (the
    form ``_relocate`` builds) or the same pairs as an ``(n, 2)`` integer
    array, since ``execute_batch`` takes any sequence of pairs."""
    pairs = [(src, dst) for _, src, dst, _err in pending]
    return np.array(pairs, dtype=np.int64).reshape(-1, 2) if as_array else pairs


def _run_moves(chip: FlashChip, run: list[tuple], as_array: bool) -> None:
    """Replay a run of ``copy`` entries through ``execute_batch``.

    A move expected to fail aborts its call; the replay asserts the error
    class, checks that ``batch_ops_completed`` points at the failing move
    and resumes with the rest of the run — exactly the state machine a
    relocating FTL runs.
    """
    start = 0
    while start < len(run):
        pending = run[start:]
        try:
            chip.execute_batch(_moves(pending, as_array))
        except FlashError as exc:
            done = exc.batch_ops_completed
            assert [e[-1] for e in pending[: done + 1]] == [None] * done + [
                type(exc)
            ], f"move {start + done} failed with {type(exc)}"
            start += done + 1
        else:
            assert all(e[-1] is None for e in pending)
            break


def _replay_batched(
    chip: FlashChip,
    stream: list[tuple],
    seed: int,
    chunk_max: int = 200,
    as_array: bool = False,
) -> list[bytes]:
    """Replay with the moves batched: each run of consecutive ``copy``
    entries inside a seeded variable-size chunk is one ``execute_batch``
    run (its pairs as an array if ``as_array``); every other entry
    replays per-op."""
    rng = np.random.default_rng(seed ^ 0xBA7C)
    reads: list[bytes] = []
    i = 0
    while i < len(stream):
        chunk = stream[i : i + int(rng.integers(1, chunk_max + 1))]
        i += len(chunk)
        for moves, run in groupby(chunk, key=lambda entry: entry[0] == "copy"):
            if moves:
                _run_moves(chip, list(run), as_array)
            else:
                reads += _replay_per_op(chip, list(run))
    return reads


@pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
@pytest.mark.parametrize("as_array", [False, True], ids=["opbatch", "ndarray"])
def test_batched_path_is_bit_identical(mode, as_array):
    stream = _record_op_stream(mode)
    ref_chip = FlashChip(GEO, mode=mode, seed=SEED)
    ref_reads = _replay_per_op(ref_chip, stream)
    batch_chip = FlashChip(GEO, mode=mode, seed=SEED)
    batch_reads = _replay_batched(batch_chip, stream, SEED, as_array=as_array)
    assert _fingerprint(batch_chip) == _fingerprint(ref_chip)
    assert batch_reads == ref_reads


@pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
def test_interleaving_per_op_calls_and_batches_on_one_chip(mode):
    """Per-op moves and ``execute_batch`` runs alternate on ONE chip, so
    both draw from one disturb stream: a draw site that bypassed the shared
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
            mixed_reads += _replay_batched(mixed_chip, chunk, SEED + i, 15)
        else:
            mixed_reads += _replay_per_op(mixed_chip, chunk)
        batched = not batched
    assert _fingerprint(mixed_chip) == _fingerprint(ref_chip)
    assert mixed_reads == ref_reads


def _instrument(chip: FlashChip) -> tuple[WriteLedger, FaultInjector]:
    """Sanitizer on, ledger on, a counting fault injector armed."""
    chip.sanitizer = Sanitizer()
    ledger = WriteLedger()
    ledger.watch_chip(chip)
    chip.ledger = ledger
    return ledger, FaultInjector(crash_after_ops=None).attach(chip)


@pytest.mark.parametrize("mode", MODES)
def test_batched_path_matches_under_ledger_and_sanitizer(mode):
    """Observers attached (an armed fault injector included): attribution
    and the injector's op count match the per-op run's too."""
    stream = _record_op_stream(mode, seed=SEED ^ 0x77)
    ref_chip = FlashChip(GEO, mode=mode, seed=SEED ^ 0x77)
    ref_ledger, ref_injector = _instrument(ref_chip)
    ref_reads = _replay_per_op(ref_chip, stream)
    batch_chip = FlashChip(GEO, mode=mode, seed=SEED ^ 0x77)
    batch_ledger, batch_injector = _instrument(batch_chip)
    batch_reads = _replay_batched(batch_chip, stream, SEED ^ 0x77)
    assert _fingerprint(batch_chip) == _fingerprint(ref_chip)
    assert batch_reads == ref_reads
    assert batch_ledger.totals() == ref_ledger.totals()
    assert batch_ledger.conservation_errors() == []
    assert batch_injector.ops_seen == ref_injector.ops_seen > 0


def _device_fingerprint(device: FlashDevice) -> dict:
    return {
        "chips": [_fingerprint(chip) for chip in device.chips],
        "clock_us": repr(device.clock.now_us),
        "breakdown_us": {
            k: repr(v) for k, v in sorted(device.clock.breakdown_us.items())
        },
        "channels": device.channel_stats(),
    }


@pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
@pytest.mark.parametrize("as_array", [False, True], ids=["opbatch", "ndarray"])
def test_four_channel_device_is_bit_identical(mode, as_array):
    """The multi-channel loop: both halves of every move go through the
    channel schedulers exactly as the per-op calls do (stalls, pushback,
    per-channel busy time)."""
    stream = _record_op_stream(mode, factory=_four_channels)
    ref = _four_channels(mode, SEED)
    ref_reads = _replay_per_op(ref, stream)
    batched = _four_channels(mode, SEED)
    batch_reads = _replay_batched(batched, stream, SEED, as_array=as_array)
    assert _device_fingerprint(batched) == _device_fingerprint(ref)
    assert batch_reads == ref_reads
    assert ref.clock.breakdown_us.get("channel_wait", 0.0) > 0.0


def test_mid_batch_error_commits_completed_accounting():
    """A failing move mid-run must leave exactly the per-op sequence state."""
    payload = bytes(range(256)) * 8
    chip = FlashChip(GEO, mode=FlashMode.SLC, seed=1)
    chip.program_page(0, payload)
    moves = [
        (0, 1),
        (0, 2),
        (0, 1),  # fails: double program
        (0, 3),  # never reached
    ]

    ref = FlashChip(GEO, mode=FlashMode.SLC, seed=1)
    ref.program_page(0, payload)
    _copy(ref, 0, 1)
    _copy(ref, 0, 2)
    with pytest.raises(WriteToProgrammedPageError):
        _copy(ref, 0, 1)

    with pytest.raises(WriteToProgrammedPageError) as excinfo:
        chip.execute_batch(moves)
    assert excinfo.value.batch_ops_completed == 2
    assert _fingerprint(chip) == _fingerprint(ref)
    assert chip.page_state(3) is PageState.ERASED


def test_uncorrectable_read_mid_batch_charges_the_sense():
    """A move's failed sense of its source is charged, exactly like a
    per-op read's."""
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
        ref.read_page_with_oob(0)

    chip = broken_chip()
    with pytest.raises(EccUncorrectableError) as excinfo:
        chip.execute_batch([(0, 1), (0, 2)])  # the second is never reached
    assert excinfo.value.batch_ops_completed == 0
    assert _fingerprint(chip) == _fingerprint(ref)
    assert chip.stats.page_reads == ref.stats.page_reads == 1
    assert chip.stats.ecc_uncorrectable_events == 1


def test_empty_batch_is_a_no_op():
    chip = FlashChip(GEO, mode=FlashMode.SLC, seed=1)
    before = _fingerprint(chip)
    chip.execute_batch([])
    assert _fingerprint(chip) == before


# ---------------------------------------------------------------------- #
# One directed case per point at which a move can fail
# ---------------------------------------------------------------------- #

IMAGE = bytes(range(256)) * (GEO.page_size // 256)
#: Page-in-block 1 is an MSB page: unusable in pSLC mode.
MSB_PAGE = 1


def _copy_chip(mode: FlashMode, instrumented: bool) -> FlashChip:
    """Pages 0 and 2 programmed (2 with an OOB of its own), the rest erased."""
    chip = FlashChip(GEO, mode=mode, seed=3)
    if instrumented:
        _instrument(chip)
    chip.program_page(0, IMAGE)
    chip.program_page(2, IMAGE[::-1], bytes(range(GEO.oob_size)))
    return chip


def _break_ecc(chip: FlashChip, ppn: int) -> None:
    counts = np.zeros(chip.ecc.codewords_for(GEO.page_size), dtype=np.int64)
    counts[0] = chip.ecc.correctable_bits + 1
    chip.page_at(ppn).add_disturb(counts)


def _retire_block_1(chip: FlashChip) -> None:
    chip.blocks[1].is_bad = True


#: name -> (mode, failing (src, dst), error, set-up on the chip)
COPY_FAILURES = {
    "source-out-of-range": (
        FlashMode.MLC, (GEO.total_pages, 6), IllegalAddressError, None,
    ),
    "source-ecc-uncorrectable": (
        FlashMode.MLC, (2, 6), EccUncorrectableError,
        lambda chip: _break_ecc(chip, 2),
    ),
    "destination-out-of-range": (
        FlashMode.MLC, (2, -1), IllegalAddressError, None,
    ),
    "destination-programmed": (
        FlashMode.MLC, (2, 0), WriteToProgrammedPageError, None,
    ),
    "destination-is-the-source": (
        FlashMode.MLC, (2, 2), WriteToProgrammedPageError, None,
    ),
    "destination-in-bad-block": (
        FlashMode.MLC, (2, GEO.pages_per_block), BadBlockError, _retire_block_1,
    ),
    "destination-msb-page-in-pslc": (
        FlashMode.PSLC, (2, GEO.pages_per_block + MSB_PAGE),
        ModeViolationError, None,
    ),
}


@pytest.mark.parametrize("instrumented", [False, True], ids=["bare", "observed"])
@pytest.mark.parametrize("case", sorted(COPY_FAILURES))
def test_copy_fails_where_the_two_per_op_calls_fail(case, instrumented):
    """A good move, the failing one, one never reached: same error, same
    charges (the source's sense is charged whenever it happened), same
    media, and ``batch_ops_completed`` names the failing move."""
    mode, (src, dst), error, prepare = COPY_FAILURES[case]
    ref = _copy_chip(mode, instrumented)
    chip = _copy_chip(mode, instrumented)
    for each in (ref, chip):
        if prepare is not None:
            prepare(each)
    _copy(ref, 0, 4)
    with pytest.raises(error) as expected:
        _copy(ref, src, dst)

    with pytest.raises(error) as raised:
        chip.execute_batch([(0, 4), (src, dst), (0, 8)])  # (0, 8): not reached
    assert raised.value.batch_ops_completed == 1
    assert str(raised.value) == str(expected.value)
    assert _fingerprint(chip) == _fingerprint(ref)
    assert chip.page_state(8) is PageState.ERASED
    sensed = 1 if error is IllegalAddressError and src >= GEO.total_pages else 2
    assert chip.stats.page_reads == sensed
    assert chip.stats.ecc_uncorrectable_events == (
        1 if error is EccUncorrectableError else 0
    )
    if instrumented:
        assert chip.ledger.conservation_errors() == []
        assert chip.fault_injector.ops_seen == ref.fault_injector.ops_seen


@pytest.mark.parametrize("instrumented", [False, True], ids=["bare", "observed"])
def test_copy_moves_data_and_oob_and_nothing_else(instrumented):
    chip = _copy_chip(FlashMode.MLC, instrumented)
    assert chip.execute_batch([(2, 6)]) is None  # a move returns no image
    data, oob = chip.read_page_with_oob(6)
    assert data == IMAGE[::-1] and oob == bytes(range(GEO.oob_size))
    assert chip.page_at(2).raw_data() == IMAGE[::-1]  # the source stays
    assert chip.stats.page_programs == 3 and chip.stats.page_reads == 2


def test_copy_of_an_erased_page_is_what_the_per_op_calls_do():
    """No special case: the erased image is read, charged and programmed."""
    ref = _copy_chip(FlashMode.SLC, False)
    chip = _copy_chip(FlashMode.SLC, False)
    _copy(ref, 5, 6)
    chip.execute_batch([(5, 6)])
    assert _fingerprint(chip) == _fingerprint(ref)
    assert chip.page_state(6) is PageState.PROGRAMMED


@pytest.mark.parametrize("instrumented", [False, True], ids=["bare", "observed"])
def test_copy_disturbs_the_destinations_neighbours(instrumented):
    """The destination's wordline neighbours are programmed, and the disturb
    stream is forged so that the copy's draw is not all-zero: the same
    victim takes the same flips as under the two per-op calls."""

    def prepared() -> FlashChip:
        chip = _copy_chip(FlashMode.MLC, instrumented)
        # MLC page 4 couples to its pair 5 and wordlines 1 and 3.
        for neighbour in (3, 5, 6):
            chip.program_page(neighbour, IMAGE)
        # One-uniform blocks: the copy's draw refills for its first
        # uniform, which is forced far above P(X = 0) for the first
        # victim's first codeword; the rest come from the stream.
        force_next_uniform(chip._disturb._rng, 1.0 - 2**-40)
        return chip

    with mock.patch.object(interference, "PREFETCH", 1):
        ref = prepared()
        _copy(ref, 0, 4)
        chip = prepared()
        chip.execute_batch([(0, 4)])
    assert ref.stats.disturb_bit_flips > 0
    assert _fingerprint(chip) == _fingerprint(ref)
    flipped = [
        ppn for ppn in range(GEO.pages_per_block)
        if chip.page_at(ppn).disturb_bits
    ]
    assert flipped == [
        ppn for ppn in range(GEO.pages_per_block)
        if ref.page_at(ppn).disturb_bits
    ]
    assert len(flipped) == 1 and flipped[0] in (2, 3, 5, 6)
