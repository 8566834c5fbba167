"""Trace capture/replay (the paper's IPL comparison method)."""

from repro.core.config import SCHEME_2X4, IpaScheme
from repro.workloads.tpcb import TpcbWorkload
from repro.workloads.trace import (
    Trace,
    TraceEvent,
    record_trace,
    replay_on_ipa,
    replay_on_ipl,
)


def small_trace(transactions=400):
    return record_trace(
        TpcbWorkload(scale=1, accounts_per_branch=1500, history_pages=80),
        transactions=transactions,
        buffer_pages=16,
        page_size=2048,
    )


class TestRecordTrace:
    def test_capture_has_both_kinds(self):
        trace = small_trace()
        kinds = {e.kind for e in trace.events}
        assert kinds == {"miss", "evict"}

    def test_evictions_carry_op_sizes(self):
        trace = small_trace()
        evicts = [e for e in trace.events if e.kind == "evict"]
        assert evicts
        with_ops = [e for e in evicts if e.op_sizes]
        assert with_ops  # balance updates produce 1-4 byte ops
        assert any(all(s <= 4 for s in e.op_sizes) for e in with_ops)

    def test_excludes_load_phase(self):
        # A tiny run can't have more evictions than misses + txn writes.
        trace = record_trace(
            TpcbWorkload(scale=1, accounts_per_branch=1500, history_pages=80),
            transactions=5,
            buffer_pages=16,
            page_size=2048,
        )
        evicts = [e for e in trace.events if e.kind == "evict"]
        assert len(evicts) < 40

    def test_deterministic(self):
        a, b = small_trace(100), small_trace(100)
        assert a.events == b.events


class TestReplay:
    def test_ipa_replay_appends(self):
        trace = small_trace()
        result = replay_on_ipa(trace, SCHEME_2X4)
        assert result.device.in_place_appends > 0
        assert result.flash.program_ops > 0

    def test_ipl_replay_logs(self):
        trace = small_trace()
        result = replay_on_ipl(trace)
        assert result.device.log_sector_flushes > 0

    def test_ipa_beats_ipl_on_writes(self):
        trace = small_trace(800)
        ipa = replay_on_ipa(trace, SCHEME_2X4)
        ipl = replay_on_ipl(trace)
        assert ipa.flash.program_ops < ipl.flash.program_ops
        assert ipl.flash.page_reads > ipa.flash.page_reads

    def test_bigger_scheme_appends_more(self):
        trace = small_trace(800)
        small = replay_on_ipa(trace, IpaScheme(1, 4))
        large = replay_on_ipa(trace, IpaScheme(4, 8))
        assert (
            large.device.in_place_appends
            > small.device.in_place_appends
        )

    def test_replay_of_synthetic_trace(self):
        # Hand-built trace: write, small-update evict, miss.
        trace = Trace(page_size=2048, max_lba=0)
        trace.events = [
            TraceEvent(kind="evict", lba=0, op_sizes=(), meta_bytes=0,
                       net_bytes=2048),  # first write
            TraceEvent(kind="evict", lba=0, op_sizes=(2,), meta_bytes=10,
                       net_bytes=2),
            TraceEvent(kind="miss", lba=0),
        ]
        result = replay_on_ipa(trace, SCHEME_2X4)
        assert result.device.in_place_appends == 1
        assert result.device.host_reads == 1


class TestReplayReadAccounting:
    """PR 8 regression: recorded misses were silently dropped when the
    replay device had never seen the LBA (build-phase pages)."""

    def _assert_no_drops(self, trace, result):
        recorded = sum(1 for e in trace.events if e.kind == "miss")
        assert result.recorded_misses == recorded
        assert (
            result.recorded_misses
            == result.replayed_reads + result.skipped_misses
        )
        # Pre-seeding makes every recorded miss replayable.
        assert result.skipped_misses == 0
        assert result.replayed_reads == recorded

    def test_ipa_replays_every_recorded_miss(self):
        trace = small_trace(400)
        result = replay_on_ipa(trace, SCHEME_2X4)
        self._assert_no_drops(trace, result)
        assert result.preseeded_pages > 0

    def test_ipl_replays_every_recorded_miss(self):
        trace = small_trace(400)
        result = replay_on_ipl(trace)
        self._assert_no_drops(trace, result)
        assert result.preseeded_pages > 0

    def test_build_phase_miss_is_preseeded_and_read(self):
        # A miss on an LBA never evicted inside the trace window: before
        # the fix this read silently vanished from the replayed stream.
        trace = Trace(page_size=2048, max_lba=7)
        trace.events = [
            TraceEvent(kind="miss", lba=7),
            TraceEvent(kind="evict", lba=7, op_sizes=(2,), meta_bytes=10,
                       net_bytes=2),
        ]
        result = replay_on_ipa(trace, SCHEME_2X4)
        assert result.preseeded_pages == 1
        assert result.recorded_misses == 1
        assert result.replayed_reads == 1
        assert result.skipped_misses == 0
        assert result.device.host_reads == 1

    def test_preseeding_excluded_from_replay_stats(self):
        # Stats are diffed from a post-seeding snapshot: a trace that is
        # one read does exactly one host read, however many pages were
        # seeded to make it servable.
        trace = Trace(page_size=2048, max_lba=3)
        trace.events = [TraceEvent(kind="miss", lba=3)]
        result = replay_on_ipa(trace, SCHEME_2X4)
        assert result.device.host_reads == 1
        assert result.device.host_writes == 0
