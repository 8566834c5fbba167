"""``StorageManager``'s update bracket and ``HeapFile`` against the spec
in ``tests.reference.storage`` (fetch the page, mutate its bytes, mark
it dirty, log one record), run over the per-byte spec tracker."""

from contextlib import nullcontext
from dataclasses import asdict
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import IPA_DISABLED, SCHEME_2X4
from repro.engine.wal import WriteAheadLog
from repro.flash import media_digest
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.ftl.noftl import NoFtlDevice
from repro.storage import manager as manager_module
from repro.storage.heap import FileFullError, HeapFile
from repro.storage.layout import PageFullError, SlottedPage
from repro.storage.manager import IpaNativePolicy, StorageManager, TraditionalPolicy
from tests.reference.core import RefChangeTracker, ref_run_changes
from tests.reference.storage import RefHeapFile, ref_update

GEO = FlashGeometry(page_size=1024, oob_size=128, pages_per_block=8, blocks=32)


def _manager(ipa=True, buffer_capacity=4, with_wal=False):
    device = NoFtlDevice(FlashChip(GEO), over_provisioning=0.2)
    if ipa:
        scheme, policy = SCHEME_2X4, IpaNativePolicy()
    else:
        scheme, policy = IPA_DISABLED, TraditionalPolicy()
    device.create_region("data", blocks=32, ipa=scheme)
    manager = StorageManager(device, scheme, policy, buffer_capacity=buffer_capacity)
    if with_wal:
        manager.wal = WriteAheadLog(FlashChip(GEO, seed=7))
    return manager


def _update_state(manager, lba):
    frame = manager.pool.get(lba)
    tracker = frame.tracker
    if isinstance(tracker, RefChangeTracker):
        last_op = tracker.last_op_changes
    else:
        last_op = ref_run_changes(tracker.last_op_runs)
    return {
        "update_ops": manager.stats.update_ops,
        "per_file_op_sizes": manager.stats.per_file_op_sizes,
        "dirty": frame.dirty,
        "pin_count": frame.pin_count,
        "now_us": manager.clock.now_us,
        "breakdown": dict(manager.clock.breakdown_us),
        "next_lsn": manager._next_lsn,
        "lsn": frame.page.lsn,
        "image": frame.page.to_bytes(),
        "tracker": (tracker.records, tracker.op_sizes, last_op),
    }


class TestUpdateBracket:
    def test_page_full_inside_the_block_still_runs_the_exit_work(self):
        """``HeapFile.insert`` probes pages with inserts that may raise:
        the probe is counted, charged and marks the frame dirty, and only
        the LSN stamp is skipped."""
        new, ref = _manager(), _manager()
        for manager, update in ((new, new.update), (ref, lambda lba: ref_update(ref, lba))):
            manager.unpin(manager.format_page(0))
            with update(0) as page:
                page.insert(b"r" * 400)
            manager.flush_all()  # clean frame, clock and tracker settled
            assert not manager.pool.get(0).dirty
            with pytest.raises(PageFullError):
                with update(0) as page:
                    page.insert(b"x" * 2000)
        state = _update_state(new, 0)
        assert state == _update_state(ref, 0)
        assert state["update_ops"] == 2 and state["dirty"] and state["pin_count"] == 0
        assert state["lsn"] == 1 and state["next_lsn"] == 2  # no LSN was taken

    def test_completed_update_matches(self):
        new, ref = _manager(), _manager()
        for manager, update in ((new, new.update), (ref, lambda lba: ref_update(ref, lba))):
            manager.unpin(manager.format_page(0))
            with update(0) as page:
                slot = page.insert(b"r" * 100)
            with update(0) as page:
                page.update(slot, 3, b"zz")
        assert _update_state(new, 0) == _update_state(ref, 0)

    @pytest.mark.parametrize("entry", ["HeapFile.update", "HeapFile.insert", "update"])
    def test_a_refused_nested_operation_releases_its_pin(self, entry):
        """Inside an open operation a second one on the same page is
        refused; the refusal neither keeps the pin it took nor counts."""
        manager = _manager(with_wal=True)
        heap = HeapFile(manager, 3, 0, 1)
        rid = heap.insert(b"r" * 100)
        with manager.update(rid.lba) as page:
            stats = asdict(manager.stats)
            with pytest.raises(RuntimeError, match="nested update operations"):
                if entry == "HeapFile.update":
                    heap.update(rid, 0, b"zz")
                elif entry == "HeapFile.insert":
                    heap.insert(b"x" * 10)
                else:
                    with manager.update(rid.lba):
                        pass
            frame = manager.pool.get(rid.lba)
            assert frame.pin_count == 1  # the open operation's own
            assert asdict(manager.stats) == stats
            page.update(rid.slot, 0, b"ok")
        assert frame.pin_count == 0
        assert frame.page.read(rid.slot)[:2] == b"ok"
        assert manager.stats.update_ops == stats["update_ops"] + 1

    @pytest.mark.parametrize("field_offset", [0, 95], ids=["field", "no-field"])
    def test_a_refused_nested_update_matches(self, field_offset):
        """Refused even where the field does not exist, like the spec's."""
        new, ref = _manager(), _manager()
        heaps = HeapFile(new, 3, 0, 1), RefHeapFile(ref, 3, 0, 1)
        updates = (new.update, lambda lba: ref_update(ref, lba))
        for manager, heap, update in zip((new, ref), heaps, updates):
            rid = heap.insert(b"r" * 100)
            with update(rid.lba) as page:
                with pytest.raises(RuntimeError, match="nested update operations"):
                    heap.update(rid, field_offset, b"zzzzzzzzzz")
                page.update(rid.slot, 1, b"q")
        state = _update_state(new, 0)
        assert state == _update_state(ref, 0) and state["pin_count"] == 0

    @pytest.mark.parametrize("with_wal", [False, True], ids=["no-wal", "wal"])
    @pytest.mark.parametrize(
        "record, error",
        [
            (b"x" * 100, None),
            (b"x" * 2000, PageFullError),
            (b"", ValueError),
            (b"x" * 10, RuntimeError),  # inside an open operation
        ],
        ids=["fits", "page-full", "empty", "op-open"],
    )
    def test_an_insert_in_one_pass_is_accounted_as_its_bracket(
        self, with_wal, record, error
    ):
        """``insert_record`` against ``begin_update`` + ``page.insert`` +
        ``end_update``: the same manager and pool stats, clock, dirty flag,
        pin count (a refused insert keeps none), LSNs, page, tracker and
        log — inside an open operation and after it closed."""

        def bracket(manager, frame):
            manager.begin_update(frame)
            slot = None
            try:
                slot = frame.page.insert(record)
            finally:
                manager.end_update(frame, slot is not None)

        def one_pass(manager, frame):
            manager.insert_record(frame, record, 0)

        states = []
        for insert in (one_pass, bracket):
            manager = _manager(with_wal=with_wal)
            manager.unpin(manager.format_page(0))
            with manager.update(0) as page:
                page.insert(b"r" * 400)
            manager.flush_all()
            outer = manager.update(0) if error is RuntimeError else nullcontext()
            with outer:
                with pytest.raises(error) if error else nullcontext():
                    insert(manager, manager.fetch(0))
                inside = _update_state(manager, 0)
            after = _update_state(manager, 0)
            manager.commit_wal()  # the log, on its device
            states.append(
                (
                    inside,
                    after,
                    asdict(manager.stats),
                    asdict(manager.pool.stats),
                    (asdict(manager.wal.stats), media_digest(manager.wal.chip))
                    if with_wal
                    else None,
                )
            )
        assert states[0] == states[1]
        inside, after = states[0][:2]
        assert after["pin_count"] == 0 and after["dirty"]
        assert inside["pin_count"] == (1 if error is RuntimeError else 0)

    def test_read_access_unpins_when_the_block_raises(self):
        manager = _manager()
        manager.unpin(manager.format_page(0))
        with pytest.raises(IndexError):
            with manager.page(0) as page:
                page.read(0)  # the fresh page has no slot 0
        assert manager.pool.get(0).pin_count == 0


#: 1 KB pages fill after a handful of records, so inserts probe full
#: pages (``PageFullError`` inside the bracket) and run off the file.
HEAP_PAGES = 5

_rid_index = st.integers(min_value=0, max_value=40)
_heap_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            st.sampled_from([1, 30, 120, 350, 900]),
            st.integers(min_value=0, max_value=255),
        ),
        st.tuples(st.just("insert"), st.just(0), st.just(0)),  # ValueError
        st.tuples(
            st.just("update"),
            _rid_index,
            st.integers(min_value=0, max_value=40),
            st.binary(min_size=1, max_size=20),
        ),
        st.tuples(
            st.just("update_multi"),
            _rid_index,
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=40),
                    st.binary(min_size=1, max_size=6),
                ),
                min_size=1,
                max_size=3,
            ),
        ),
        st.tuples(st.just("delete"), _rid_index),
        st.tuples(st.just("read"), _rid_index),
        st.tuples(st.just("commit")),
        st.tuples(st.just("flush")),
    ),
    min_size=1,
    max_size=40,
)


def _apply(heap, manager, rids, op):
    kind = op[0]
    if kind == "insert":
        rids.append(heap.insert(bytes([op[2]]) * op[1]))
        return rids[-1]
    if kind == "lsn":  # the next LSN the manager hands out
        manager._next_lsn = op[1]
        return None
    if kind == "commit":
        return manager.commit_wal()
    if kind == "flush":
        return manager.flush_all()
    if not rids:
        return None
    rid = rids[op[1] % len(rids)]
    if kind == "read":
        return heap.read(rid)
    if kind == "delete":
        return heap.delete(rid)
    if kind == "update":
        return heap.update(rid, op[2], op[3])
    return heap.update_multi(rid, op[2])


def _run_heap_ops(ops, with_wal, ipa, spec=False, first_lsn=1):
    """Drive one fresh stack — the spec's with ``spec`` — and return what
    is observable after every op."""
    with (
        mock.patch.object(manager_module, "ChangeTracker", RefChangeTracker)
        if spec
        else nullcontext()
    ):
        manager = _manager(ipa, buffer_capacity=3, with_wal=with_wal)
        manager._next_lsn = first_lsn
        heap = (RefHeapFile if spec else HeapFile)(manager, 3, 0, HEAP_PAGES)
        rids = []
        history = []
        for op in ops:
            try:
                outcome = _apply(heap, manager, rids, op)
            except (ValueError, KeyError, FileFullError) as error:
                outcome = (type(error), str(error))
            history.append(
                {
                    "op": op,
                    "outcome": outcome,
                    "manager": asdict(manager.stats),
                    "pool": asdict(manager.pool.stats),
                    "resident": [
                        (f.lba, f.dirty, f.pin_count, f.page.lsn, f.page.to_bytes())
                        for f in manager.pool.frames()
                    ],
                    "now_us": repr(manager.clock.now_us),
                    "breakdown": {
                        k: repr(v) for k, v in manager.clock.breakdown_us.items()
                    },
                    "next_lsn": manager._next_lsn,
                    "no_steal": sorted(manager.pool.no_steal),
                    "records": heap.record_count,
                    "media": media_digest(manager.device.chip),
                    "wal": (
                        asdict(manager.wal.stats),
                        repr(manager.wal.chip.clock.now_us),
                        media_digest(manager.wal.chip),
                    )
                    if with_wal
                    else None,
                }
            )
    return history


#: The first LSN of a run: 1, or just below a byte boundary, so the
#: stamps an update makes are one to five bytes wide and carry.
_first_lsns = st.sampled_from([1, 0xF8, 0xFFF8, 0xFFFFF8, 2**32 - 8])


class TestHeapFile:
    @pytest.mark.parametrize("ipa", [True, False], ids=["ipa-native", "traditional"])
    @pytest.mark.parametrize("with_wal", [False, True], ids=["no-wal", "wal"])
    @given(ops=_heap_ops, first_lsn=_first_lsns)
    @settings(max_examples=60, deadline=None)
    def test_heap_sequences(self, with_wal, ipa, ops, first_lsn):
        expected = _run_heap_ops(ops, with_wal, ipa, spec=True, first_lsn=first_lsn)
        history = _run_heap_ops(ops, with_wal, ipa, first_lsn=first_lsn)
        for step, reference in zip(history, expected):
            assert step == reference, step["op"]

    @pytest.mark.parametrize("ipa", [True, False], ids=["ipa-native", "traditional"])
    @pytest.mark.parametrize("with_wal", [False, True], ids=["no-wal", "wal"])
    def test_an_lsn_stamp_with_a_zero_byte_between_changed_ones(self, with_wal, ipa):
        """Page LSN 0x000100FF restamped to 0x01000000: the stamp's XOR,
        0x010100FF, changes bytes 0, 2 and 3 of the field but not 1."""
        ops = [
            ("lsn", 0x000100FF),
            ("insert", 120, 7),  # stamps the page with 0x000100FF
            ("lsn", 0x01000000),
            ("update", 0, 3, b"zz"),
            ("update", 0, 50, b"\x07"),  # an equal byte: only the stamp
            ("commit",),
        ]
        expected = _run_heap_ops(ops, with_wal, ipa, spec=True)
        history = _run_heap_ops(ops, with_wal, ipa)
        for step, reference in zip(history, expected):
            assert step == reference, step["op"]
        page_lsns = [lsn for _lba, _dirty, _pins, lsn, _image in history[3]["resident"]]
        assert page_lsns == [0x01000000]

    def test_the_sequences_reach_full_pages_evictions_compaction_and_the_wal(self):
        """The strategy above is only worth its name if its ops get there."""
        ops = [("insert", 350, 1)] * 12 + [
            ("update", 2, 3, b"zz"),
            ("update_multi", 3, [(0, b"a"), (9, b"bc")]),
            ("commit",),
            *[("read", i) for i in (4, 6, 8)],  # evicts page 1 in place
            ("delete", 0),
            ("insert", 350, 2),  # first-fit compacts page 0
            ("insert", 900, 2),  # more than an empty page holds
        ]
        with mock.patch.object(
            SlottedPage, "compact", autospec=True, side_effect=SlottedPage.compact
        ) as compact:
            history = _run_heap_ops(ops, True, True)
        assert compact.call_count == 1 and history[-2]["outcome"].lba == 0
        full, last = history[10]["manager"], history[-1]
        assert full["update_ops"] > 10 + 2  # failed probes count
        assert last["outcome"][0] is FileFullError
        assert last["manager"]["ipa_flushes"] and last["pool"]["dirty_evictions"]
        assert last["wal"][0]["records_logged"] > 14
