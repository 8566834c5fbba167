"""Service tier: determinism contract, admission under overload, metrics."""

import pytest

from repro.service import (
    ServiceConfig,
    ShardedService,
    replay_shard_stream,
    run_service,
    shard_of,
)
from repro.workloads.tpcb import TpcbWorkload
from repro.workloads.ycsb import YcsbWorkload


def tiny_workload():
    return TpcbWorkload(scale=1, accounts_per_branch=200, history_pages=32)


def small_ycsb_a():
    return YcsbWorkload(records=500, mix="a", zipfian=True)


def tiny_config(**kwargs):
    defaults = dict(
        workload_factory=tiny_workload,
        shards=2,
        sessions=6,
        txns_per_session=6,
        queue_depth=2,
        group_commit_size=3,
    )
    defaults.update(kwargs)
    return ServiceConfig(**defaults)


class TestDeterminismContract:
    def test_same_seed_same_digests(self):
        config = tiny_config()
        a, b = run_service(config), run_service(config)
        assert a.digests() == b.digests()
        assert [r.dispatch_log for r in a.shard_reports] == [
            r.dispatch_log for r in b.shard_reports
        ]
        assert a.txns_completed == b.txns_completed
        assert a.elapsed_us == b.elapsed_us

    def test_serial_replay_reproduces_each_shard(self):
        config = tiny_config()
        result = run_service(config)
        for report in result.shard_reports:
            digest = replay_shard_stream(
                config, report.index, report.dispatch_log
            )
            assert digest == report.media_digest

    def test_different_seed_different_media(self):
        a = run_service(tiny_config(seed=1))
        b = run_service(tiny_config(seed=2))
        assert a.digests() != b.digests()

    def test_replay_rejects_bad_shard_index(self):
        config = tiny_config()
        with pytest.raises(ValueError):
            replay_shard_stream(config, config.shards, [])


# Golden digests of a YCSB-A service run with 1 KB records, captured on
# the tree before WAL records were built from byte runs.  The TPC-B
# goldens in test_replication.py are mostly <= 16-byte writes; these
# records carry 1 KB inserts and 100-byte field updates with unchanged
# bytes inside, the record-sized span path of the change tracker.  The
# digests cover each shard's WAL chip: a record whose bytes moved moves
# them.
YCSB_GOLDEN_DIGESTS = [
    "28ffdb12290ecbc4d5af18b01fdb23bd5c13feb9f545e9d85adb87cf8cfb38cf",
    "0a15413bfc2b40c8f6d920baf5a3a5180721e6a9b349b299f664b3f40c67a56e",
]
#: Per shard: WAL records logged, bytes flushed, page programs, group
#: flushes.
YCSB_GOLDEN_WAL = [(410, 886932, 228, 7), (408, 886302, 228, 7)]


def kilobyte_ycsb_a():
    return YcsbWorkload(
        records=300, mix="a", field_count=10, field_size=100, zipfian=True
    )


class TestYcsbAGolden:
    def test_digests_and_wal_counters_match_the_goldens(self):
        service = ShardedService(
            ServiceConfig(
                workload_factory=kilobyte_ycsb_a,
                shards=2,
                sessions=4,
                txns_per_session=10,
                buffer_pages=16,
                queue_depth=4,
                group_commit_size=3,
                seed=20171017,
            )
        )
        result = service.run()
        assert result.digests() == YCSB_GOLDEN_DIGESTS
        assert result.txns_completed == 40
        assert [
            (
                wal.stats.records_logged,
                wal.stats.bytes_flushed,
                wal.stats.log_page_programs,
                wal.stats.group_flushes,
            )
            for wal in (shard.manager.wal for shard in service.shards)
        ] == YCSB_GOLDEN_WAL


class TestClosedLoop:
    def test_every_txn_accounted(self):
        config = tiny_config()
        service = ShardedService(config)
        result = service.run()
        for session in service.sessions:
            assert session.remaining == 0
            assert (
                session.completed + session.shed == config.txns_per_session
            )
        assert result.txns_completed + result.txns_shed == (
            config.sessions * config.txns_per_session
        )

    def test_sessions_pinned_to_routed_shard(self):
        config = tiny_config()
        service = ShardedService(config)
        service.run()
        for shard in service.shards:
            tenants = {t for group in shard.dispatch_log for t in group}
            for tenant in tenants:
                assert shard_of(tenant, config.shards) == shard.index

    def test_batches_respect_group_commit_size(self):
        config = tiny_config(group_commit_size=2)
        service = ShardedService(config)
        service.run()
        for shard in service.shards:
            assert shard.dispatch_log  # every shard saw work
            assert all(len(g) <= 2 for g in shard.dispatch_log)

    def test_single_shard_run(self):
        result = run_service(tiny_config(shards=1, sessions=4))
        assert result.shards == 1
        assert result.txns_completed > 0
        assert result.tps > 0


class TestAdmissionUnderOverload:
    def test_shed_policy_bounds_p99(self):
        # 8 sessions hammering one shard: a depth-2 shed queue keeps the
        # client-view p99 bounded; an effectively unbounded queue lets
        # every request wait behind the whole backlog.
        overload = dict(
            workload_factory=tiny_workload,
            shards=1,
            sessions=8,
            txns_per_session=6,
            group_commit_size=2,
            think_time_us=10.0,
        )
        bounded = run_service(
            ServiceConfig(queue_depth=2, admission_policy="shed", **overload)
        )
        unbounded = run_service(
            ServiceConfig(queue_depth=10_000, admission_policy="shed",
                          **overload)
        )
        assert bounded.txns_shed > 0
        assert unbounded.txns_shed == 0
        assert (
            bounded.shard_reports[0].p99_us
            < unbounded.shard_reports[0].p99_us
        )

    def test_sheds_visible_in_metrics(self):
        config = tiny_config(shards=1, sessions=8, queue_depth=1,
                             think_time_us=0.0)
        service = ShardedService(config)
        result = service.run()
        shard = service.shards[0]
        assert result.txns_shed > 0
        assert shard.admission.sheds == result.txns_shed
        assert result.shard_reports[0].txns_shed == result.txns_shed

    def test_wait_policy_completes_everything(self):
        # 8 sessions with no think time on one depth-1 queue: the queue
        # fills, sessions park, and every parked request still completes.
        config = tiny_config(admission_policy="wait", shards=1, sessions=8,
                             queue_depth=1, think_time_us=0.0)
        result = run_service(config)
        report = result.shard_reports[0]
        assert report.admission_waits > 0
        assert report.admission_wait_us > 0
        assert result.txns_shed == 0
        assert result.txns_completed == (
            config.sessions * config.txns_per_session
        )


class TestObsWiring:
    def test_latencies_match_completions(self):
        config = tiny_config()
        service = ShardedService(config)
        service.run()
        for shard in service.shards:
            completed = sum(len(g) for g in shard.dispatch_log)
            assert shard.txns_completed == completed
            assert len(shard.latencies_us) == completed

    def test_ledger_attributes_shard_writes(self):
        config = tiny_config(shards=1, sessions=3, txns_per_session=4)
        service = ShardedService(config)
        service.run()
        shard = service.shards[0]
        assert shard.observation is not None
        by_cause = shard.observation.ledger.by_cause
        assert by_cause["wal"].partial_programs > 0

    def test_observe_off_runs_dark(self):
        config = tiny_config(observe=False, sessions=4, txns_per_session=3)
        service = ShardedService(config)
        result = service.run()
        assert service.shards[0].observation is None
        assert result.txns_completed > 0

    def test_reports_do_not_depend_on_observe(self):
        # Overload counters count whether or not the run is observed; an
        # un-observed run (the benchmark's setting) used to report zero
        # admission waits.
        kwargs = dict(
            workload_factory=small_ycsb_a,
            shards=1,
            sessions=8,
            txns_per_session=20,
            queue_depth=1,
            admission_policy="wait",
            group_commit_size=1,
            think_time_us=0,
            seed=3,
        )
        observed = run_service(ServiceConfig(observe=True, **kwargs))
        dark = run_service(ServiceConfig(observe=False, **kwargs))
        assert observed.shard_reports[0].admission_waits == 159
        assert dark.shard_reports == observed.shard_reports

    def test_group_commits_counted(self):
        config = tiny_config()
        service = ShardedService(config)
        service.run()
        for shard in service.shards:
            assert shard.group_commits == len(shard.dispatch_log)
            assert (
                shard.manager.wal.stats.group_flushes
                == len(shard.dispatch_log)
            )


class TestClockSeam:
    """A shard's clock reaches global time only as a batch *duration*.

    Skewing one shard's absolute clock must change nothing the scheduler
    reports: a scheduler that read ``shard.manager.clock.now_us`` into
    global time (instead of ``t_us + duration_us``) would be off by
    about 1e9 us here.
    """

    SKEW_US = 2**30

    def _run(self, skew_us):
        service = ShardedService(
            tiny_config(shards=2, workload_factory=small_ycsb_a)
        )
        service.shards[0].manager.clock.advance(skew_us)
        return service, service.run()

    def test_skewed_shard_clock_changes_nothing(self):
        base_service, base = self._run(0.0)
        skew_service, skewed = self._run(self.SKEW_US)
        assert [r.dispatch_log for r in skewed.shard_reports] == [
            r.dispatch_log for r in base.shard_reports
        ]
        assert skewed.digests() == base.digests()
        # Durations measured 2**30 us up the shard's axis round
        # differently in the last bits, so times agree to rel=1e-9.
        assert skewed.elapsed_us == pytest.approx(base.elapsed_us, rel=1e-9)
        for skew_shard, base_shard in zip(
            skew_service.shards, base_service.shards
        ):
            assert skew_shard.latencies_us == pytest.approx(
                base_shard.latencies_us, rel=1e-9
            )
        for skew_report, base_report in zip(
            skewed.shard_reports, base.shard_reports
        ):
            assert skew_report.p50_us == pytest.approx(
                base_report.p50_us, rel=1e-9
            )
            assert skew_report.p99_us == pytest.approx(
                base_report.p99_us, rel=1e-9
            )


class TestConfigValidation:
    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            ServiceConfig(admission_policy="reject-oldest")

    def test_bad_scheduling_rejected(self):
        for mode in ("asyncio", "threaded"):
            with pytest.raises(
                ValueError, match="threaded scheduling was removed"
            ):
                ServiceConfig(scheduling=mode)
        ServiceConfig(scheduling="deterministic")

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            ServiceConfig(shards=0)
        with pytest.raises(ValueError):
            ServiceConfig(queue_depth=0)
        with pytest.raises(ValueError):
            ServiceConfig(group_commit_size=0)

    @pytest.mark.parametrize("field, value", [("think_time_us", -5.0)])
    def test_negative_delays_rejected(self, field, value):
        """A negative delay would issue a session's next request before
        the completion that triggers it."""
        with pytest.raises(ValueError, match=rf"{field} must be >= 0, got {value}"):
            ServiceConfig(**{field: value})
        ServiceConfig(**{field: 0.0})
