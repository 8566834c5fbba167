"""The four workloads: set-up, measured op loop, counters, output check.

Each workload drives the program through public entry points only
(``build_stack``, ``Workload.build/transaction``, ``Database.checkpoint``,
the ``FlashBackend`` protocol, ``ShardedService``) and owns its op loop,
so set-up, every op and every layer boundary can be timed from outside.
All four are closed loops: one client for the stack workloads, eight
simulated sessions (100 us simulated think time, no OS threads) for the
service.  An op that raises aborts the repetition and fails the run —
the head-room guards below exist so that the known ways of running out
of space are refused before the measured phase, with the numbers.
"""

from __future__ import annotations

import abc
import copy
import hashlib
import math
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from benchmarks.e2e.layers import Span
from benchmarks.e2e.spec import COUNTED_OPS, SVC_SESSIONS
from repro.bench.harness import ExperimentConfig, build_stack
from repro.core.config import SCHEME_2X4
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.modes import FlashMode
from repro.ftl.page_mapping import PageMappingFtl
from repro.service import (
    AdmissionDecision,
    ServiceConfig,
    ShardedService,
    replay_shard_stream,
)
from repro.storage.verify import verify_database
from repro.workloads.base import Workload, rows_per_page
from repro.workloads.tpcb import HISTORY_SCHEMA, TpcbWorkload
from repro.workloads.ycsb import YcsbWorkload

FTL_METHODS = ("read_page", "write_page", "write_delta", "trim")
FLASH_METHODS = (
    "read_page", "read_page_with_oob", "program_page", "reprogram_page",
    "partial_program", "erase_block", "execute_batch",
)
#: ``SimClock.breakdown_us`` categories charged by the flash array + bus.
_FLASH_BUSY = ("read", "program", "erase", "bus")
_FLASH_COUNTERS = (
    "page_reads", "page_programs", "page_reprograms", "block_erases",
    "bytes_programmed", "ecc_corrected_bits", "ecc_uncorrectable_events",
)
#: Refuse a service run whose WAL would end fuller than this: the
#: service never checkpoints, so a longer run dies seconds in with
#: ``IllegalProgramError: WAL device full; checkpoint needed``.
WAL_FILL_LIMIT = 0.85
#: WAL bytes one YCSB-A service op costs its shard, measured at HEAD
#: (355 of 512 4 KB log pages after 52 000 ops per shard).
_SVC_WAL_BYTES_PER_OP = 28.5


class HeadroomError(RuntimeError):
    """The run as sized would overflow a fixed-size file or log."""


def percentile(values: List[float], q: float) -> float:
    """Exact nearest-rank percentile (0.0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


def mid_and_tail_mean(values: List[float]) -> Tuple[float, float]:
    """(mean of the middle 80 %, mean of the slowest 1 %) of a sample.

    Simulated op latencies are sums of a few fixed device latencies, so
    a nearest-rank median or p99 is one quantised value that reads the
    same for every seed and moves only when that one path changes.  The
    two means cover the same ground — the typical op and the GC-stall
    tail — and move with hit rate, op mix and stall depth.
    """
    if not values:
        return 0.0, 0.0
    ordered = sorted(values)
    n = len(ordered)
    middle = ordered[n // 10 : max(n - n // 10, n // 10 + 1)]
    tail = ordered[-max(math.ceil(n / 100), 1) :]
    return sum(middle) / len(middle), sum(tail) / len(tail)


class Spans:
    """The layer boundaries a traced repetition times (host seconds)."""

    def __init__(self) -> None:
        self.ftl = Span()  # FlashBackend protocol methods of the device
        self.flash_data = Span()  # data chip ops (nested inside ftl)
        self.flash_wal = Span()  # log chip ops (nested inside wal)
        self.flush = Span()  # WritePolicy.flush
        self.wal = Span()  # StorageManager.commit_wal / end_wal_group
        self.batch = Span()  # Shard.execute_batch
        #: Host seconds per op, as seen at the batch boundary (service).
        self.batch_op_s: List[float] = []
        #: Distinct parks at admission, counted at ``offer`` (the
        #: program's own counter is a null object with observe off).
        self.admission_waits = 0


class StackProbe:
    """Public counters of one device (+ manager + db) since set-up."""

    def __init__(self, device: Any, manager: Any = None, db: Any = None) -> None:
        self.device = device
        self.manager = manager
        self.db = db
        self.clock = device.chip.clock
        self.wal = manager.wal if manager is not None else None
        self.chips = [device.chip]
        if self.wal is not None:
            self.chips.append(self.wal.chip)
        self._device0 = device.stats.snapshot()
        self._flash0 = [chip.stats.snapshot() for chip in self.chips]
        if manager is not None:
            self._manager0 = copy.copy(manager.stats)
            self._pool0 = copy.copy(manager.pool.stats)
            self._committed0 = db.txn_stats.committed
        if self.wal is not None:
            self._wal0 = copy.copy(self.wal.stats)

    def instrument(self, spans: Spans) -> None:
        """Place the timing wrappers on this stack's layer boundaries."""
        spans.ftl.wrap_methods(self.device, FTL_METHODS)
        spans.flash_data.wrap_methods(self.device.chip, FLASH_METHODS)
        if self.manager is not None:
            spans.flush.wrap_methods(self.manager.policy, ("flush",))
        if self.wal is not None:
            spans.wal.wrap_methods(
                self.manager, ("commit_wal", "end_wal_group")
            )
            spans.flash_wal.wrap_methods(self.wal.chip, FLASH_METHODS)

    def wal_fill_share(self) -> float:
        """Share of the log device the measured phase filled."""
        if self.wal is None:
            return 0.0
        geometry = self.wal.chip.geometry
        flushed = self.wal.stats.bytes_flushed - self._wal0.bytes_flushed
        return flushed / (geometry.total_pages * geometry.page_size)

    def counts(self) -> Dict[str, float]:
        """Additive raw counts; layers this stack lacks read 0."""
        out: Dict[str, float] = dict.fromkeys(RAW_COUNTS, 0)
        device = self.device.stats.diff(self._device0)
        out["ftl.host_reads"] = device.host_reads
        out["ftl.host_page_writes"] = device.host_writes
        out["ftl.host_delta_writes"] = device.host_delta_writes
        out["ftl.host_bytes_written"] = device.host_bytes_written
        out["ftl.in_place_appends"] = device.in_place_appends
        out["ftl.page_invalidations"] = device.page_invalidations
        out["ftl.gc_page_migrations"] = device.gc_page_migrations
        out["ftl.gc_erases"] = device.gc_erases
        for chip, before in zip(self.chips, self._flash0):
            flash = chip.stats.diff(before)
            for name in _FLASH_COUNTERS:
                out[f"flash.{name}"] += getattr(flash, name)
        breakdown = self.clock.breakdown_us
        out["flash.busy_us"] = sum(breakdown.get(c, 0.0) for c in _FLASH_BUSY)
        out["sim.elapsed_us"] = self.clock.now_us
        if self.manager is not None:
            stats, before = self.manager.stats, self._manager0
            for name in (
                "ipa_flushes", "oop_flushes", "ipa_fallbacks",
                "forced_wal_flushes",
            ):
                out[f"storage.{name}"] = getattr(stats, name) - getattr(before, name)
            for name in (
                "net_bytes_updated", "delta_records_written",
                "delta_bytes_written",
            ):
                out[f"core.{name}"] = getattr(stats, name) - getattr(before, name)
            pool = self.manager.pool.stats
            out["storage.fetches"] = pool.fetches - self._pool0.fetches
            out["storage.hits"] = pool.hits - self._pool0.hits
            out["storage.dirty_evictions"] = (
                pool.dirty_evictions - self._pool0.dirty_evictions
            )
            out["engine.txn_committed"] = (
                self.db.txn_stats.committed - self._committed0
            )
        if self.wal is not None:
            wal, before = self.wal.stats, self._wal0
            out["engine.wal_records"] = wal.records_logged - before.records_logged
            out["engine.wal_bytes_flushed"] = wal.bytes_flushed - before.bytes_flushed
            out["engine.wal_page_programs"] = (
                wal.log_page_programs - before.log_page_programs
            )
            out["engine.wal_group_flushes"] = wal.group_flushes - before.group_flushes
        return out


#: Every raw count a probe reports (zero-filled for bypassed layers).
RAW_COUNTS = (
    "engine.txn_committed", "engine.wal_records", "engine.wal_bytes_flushed",
    "engine.wal_page_programs", "engine.wal_group_flushes",
    "storage.fetches", "storage.hits", "storage.dirty_evictions",
    "storage.ipa_flushes", "storage.oop_flushes", "storage.ipa_fallbacks",
    "storage.forced_wal_flushes",
    "core.net_bytes_updated", "core.delta_records_written",
    "core.delta_bytes_written",
    "ftl.host_reads", "ftl.host_page_writes", "ftl.host_delta_writes",
    "ftl.host_bytes_written", "ftl.in_place_appends",
    "ftl.page_invalidations", "ftl.gc_page_migrations", "ftl.gc_erases",
    *(f"flash.{name}" for name in _FLASH_COUNTERS),
    "flash.busy_us", "sim.elapsed_us",
)


class WorkloadRun(abc.ABC):
    """One repetition of one workload.

    Args:
        seed: Seeds every input (load data, op stream, session RNGs).
        ops: Attempted operations of the full measured phase.
        counted: This is the counted pass: :meth:`execute` runs only
            the first :data:`COUNTED_OPS` ops.
    """

    #: Raw count the simulated write-amplification metric divides by.
    user_bytes_key = "core.net_bytes_updated"

    def __init__(self, seed: int, ops: int, counted: bool = False) -> None:
        self.seed = seed
        self.ops = ops
        #: Ops :meth:`execute` runs.
        self.limit = min(ops, COUNTED_OPS) if counted else ops
        self.sim_lat_us: List[float] = []
        self.host_lat_s: List[float] = []
        #: Exact state after the first ``min(ops, COUNTED_OPS)`` ops,
        #: compared between plain, traced and counted repetitions.
        self.prefix: Optional[Dict[str, float]] = None
        self.digests: List[str] = []

    @abc.abstractmethod
    def setup(self) -> None:
        """Build the stack, load or pre-fill, checkpoint, zero the clock."""

    @abc.abstractmethod
    def instrument(self, spans: Spans) -> None:
        """Place timing wrappers on the layer boundaries (traced pass)."""

    @abc.abstractmethod
    def execute(self) -> None:
        """The measured phase."""

    @abc.abstractmethod
    def probes(self) -> List[StackProbe]:
        """One probe per independent stack."""

    @abc.abstractmethod
    def verify(self, traced: bool) -> Tuple[int, List[str]]:
        """Check outputs; returns (failed ops, error messages)."""

    def sim_ops_per_s(self, raw: Dict[str, float]) -> float:
        return self.limit / (raw["sim.elapsed_us"] / 1e6)

    def service_counts(self) -> Dict[str, float]:
        return {"service.batches": 0, "service.shed": 0}

    def raw_counts(self) -> Dict[str, float]:
        """Raw counts summed over the run's stacks."""
        total: Dict[str, float] = dict.fromkeys(RAW_COUNTS, 0)
        for probe in self.probes():
            for name, value in probe.counts().items():
                total[name] += value
        return total

    def fingerprint(self) -> Dict[str, float]:
        """Simulated time and flash op counts so far (exact values)."""
        raw = self.raw_counts()
        return {
            name: raw[name]
            for name in RAW_COUNTS
            if name.startswith(("flash.", "sim."))
        }


class _StepRun(WorkloadRun):
    """A workload whose measured phase is the benchmark's own op loop."""

    clock: Any

    @abc.abstractmethod
    def _make_op(self) -> Callable[[], None]:
        """A callable that performs the next op of the stream."""

    def execute(self) -> None:
        op = self._make_op()
        prefix = min(self.limit, COUNTED_OPS)
        self._run_ops(op, prefix)
        self.prefix = self.fingerprint()
        self._run_ops(op, self.limit - prefix)

    def _run_ops(self, op: Callable[[], None], count: int) -> None:
        clock = self.clock
        sim_lat = self.sim_lat_us.append
        host_lat = self.host_lat_s.append
        for _ in range(count):
            host_start = perf_counter()
            sim_start = clock.now_us
            op()
            sim_lat(clock.now_us - sim_start)
            host_lat(perf_counter() - host_start)


class _DbRun(_StepRun):
    """A full stack (workloads -> engine -> storage -> core -> ftl -> flash)."""

    @abc.abstractmethod
    def _make_workload(self) -> Workload:
        ...

    @abc.abstractmethod
    def _make_config(self, workload: Workload) -> ExperimentConfig:
        ...

    def _guard(self) -> None:
        """Refuse a run that would overflow (before anything is loaded)."""

    def setup(self) -> None:
        self.workload = self._make_workload()
        self.db, self.manager = build_stack(self._make_config(self.workload))
        self._guard()
        self.rng = np.random.default_rng(self.seed)
        self.workload.build(self.db, self.rng)  # ends with a checkpoint
        self.clock = self.manager.clock
        self.clock.reset()
        self.probe = StackProbe(self.manager.device, self.manager, self.db)

    def instrument(self, spans: Spans) -> None:
        self.probe.instrument(spans)

    def probes(self) -> List[StackProbe]:
        return [self.probe]

    def _make_op(self) -> Callable[[], None]:
        transaction, db, rng = self.workload.transaction, self.db, self.rng

        def op() -> None:
            transaction(db, rng)

        return op

    def _verify_common(self) -> List[str]:
        errors = list(verify_database(self.db).errors)
        committed = self.probe.counts()["engine.txn_committed"]
        if committed != self.limit:
            errors.append(f"{committed} txns committed, {self.limit} attempted")
        return errors


class TpcbEvictIpa(_DbRun):
    """The paper's Table-1 ``[2x4] pSLC`` configuration: every txn evicts."""

    def _make_workload(self) -> TpcbWorkload:
        return TpcbWorkload(
            scale=1,
            accounts_per_branch=12_000,
            # IPA pages hold fewer rows than traditional ones (73 vs 75
            # history rows per 4 KB page), so the file is sized from ops.
            history_pages=math.ceil(self.ops / 55) + 20,
        )

    def _make_config(self, workload: Workload) -> ExperimentConfig:
        return ExperimentConfig(
            workload=workload,
            architecture="ipa-native",
            mode=FlashMode.PSLC,
            scheme=SCHEME_2X4,
            buffer_pages=24,
            page_size=4096,
            device_utilization=0.80,
            over_provisioning=0.15,
            with_wal=False,
            channels=1,
            seed=self.seed,
        )

    def _guard(self) -> None:
        per_page = rows_per_page(self.db, HISTORY_SCHEMA.record_size)
        capacity = per_page * self.workload.history_pages
        if capacity < self.ops:
            raise HeadroomError(
                f"history file holds {capacity} rows "
                f"({self.workload.history_pages} pages x {per_page}), "
                f"the run inserts {self.ops}: FileFullError mid-run"
            )

    def verify(self, traced: bool) -> Tuple[int, List[str]]:
        errors = self._verify_common()
        initial = self.workload.initial_balance
        sums = {
            "account": sum(
                row["a_balance"] - initial
                for row in self.db.table("account").scan()
            ),
            "teller": sum(
                row["t_balance"] - initial
                for row in self.db.table("teller").scan()
            ),
            "branch": sum(
                row["b_balance"] - initial
                for row in self.db.table("branch").scan()
            ),
        }
        history_rows = 0
        sums["history"] = 0
        for row in self.db.table("history").scan():
            history_rows += 1
            sums["history"] += row["h_delta"]
        if len(set(sums.values())) != 1:
            errors.append(f"TPC-B balance identity broken: {sums}")
        if history_rows != self.limit:
            errors.append(f"{history_rows} history rows, {self.limit} txns")
        return len(errors), errors


class YcsbBCold(_DbRun):
    """95 % reads over a working set ~9x the buffer: the fetch-miss path."""

    records = 20_000

    def _make_workload(self) -> YcsbWorkload:
        return YcsbWorkload(records=self.records, mix="b", zipfian=False)

    def _make_config(self, workload: Workload) -> ExperimentConfig:
        return ExperimentConfig(
            workload=workload,
            architecture="ipa-native",
            mode=FlashMode.PSLC,
            scheme=SCHEME_2X4,
            buffer_pages=64,
            seed=self.seed,
        )

    def _table_digest(self) -> Tuple[int, str]:
        digest = hashlib.sha256()
        rows = 0
        for row in self.db.table("usertable").scan():
            rows += 1
            digest.update(repr(sorted(row.items())).encode())
        return rows, digest.hexdigest()

    def verify(self, traced: bool) -> Tuple[int, List[str]]:
        errors = self._verify_common()
        rows, buffered = self._table_digest()
        if rows != self.records:
            errors.append(f"{rows} rows in usertable, {self.records} loaded")
        self.db.checkpoint()
        self.manager.pool.drop_all()
        _, from_media = self._table_digest()
        if from_media != buffered:
            errors.append("rows re-read from media differ from the buffered rows")
        return len(errors), errors


class FtlOverwriteTrad(_StepRun):
    """A device stream straight into the page-mapping FTL: ftl + flash only.

    Per-op API on purpose — it is the path the live stack uses;
    ``read_many`` / ``write_many`` are reached only from trace replay.
    """

    user_bytes_key = "ftl.host_bytes_written"
    write_share = 0.70
    fill_share = 0.80

    def setup(self) -> None:
        chip = FlashChip(FlashGeometry(4096, 128, 64, 256), mode=FlashMode.MLC)
        self.ftl = PageMappingFtl(chip, over_provisioning=0.15)
        self.clock = chip.clock
        rng = np.random.default_rng(self.seed)
        self.lbas = int(self.ftl.logical_pages * self.fill_share)
        #: Payload body after the 8-byte (lba, version) stamp.
        self.body = rng.bytes(chip.geometry.page_size - 8)
        #: The benchmark's shadow of the device: lba -> version.
        self.versions = [0] * self.lbas
        for lba in range(self.lbas):
            self.ftl.write_page(lba, self._page(lba, 0))
        self._stream = iter(
            zip(
                rng.integers(0, self.lbas, self.ops).tolist(),
                (rng.random(self.ops) < self.write_share).tolist(),
            )
        )
        self.read_mismatches = 0
        self.clock.reset()
        self.probe = StackProbe(self.ftl)

    @staticmethod
    def _stamp(lba: int, version: int) -> bytes:
        return lba.to_bytes(4, "little") + version.to_bytes(4, "little")

    def _page(self, lba: int, version: int) -> bytes:
        return self._stamp(lba, version) + self.body

    def instrument(self, spans: Spans) -> None:
        self.probe.instrument(spans)

    def probes(self) -> List[StackProbe]:
        return [self.probe]

    def _make_op(self) -> Callable[[], None]:
        stream, versions, body = self._stream, self.versions, self.body
        read_page, write_page = self.ftl.read_page, self.ftl.write_page
        stamp = self._stamp

        def op() -> None:
            lba, is_write = next(stream)
            if is_write:
                version = versions[lba] = versions[lba] + 1
                write_page(lba, stamp(lba, version) + body)
            elif read_page(lba)[:8] != stamp(lba, versions[lba]):
                self.read_mismatches += 1

        return op

    def verify(self, traced: bool) -> Tuple[int, List[str]]:
        stale = sum(
            self.ftl.read_page(lba) != self._page(lba, version)
            for lba, version in enumerate(self.versions)
        )
        errors = []
        if self.read_mismatches:
            errors.append(f"{self.read_mismatches} reads returned a stale page")
        if stale:
            errors.append(f"{stale} pages differ from the shadow at read-back")
        return self.read_mismatches + stale, errors


def _svc_workload() -> YcsbWorkload:
    return YcsbWorkload(records=6_000, mix="a", zipfian=True)


class SvcYcsbA2Shard(WorkloadRun):
    """The service tier: router + admission + event loop + WAL group commit.

    The counted pass is a whole short run, not a prefix: ``run()``
    cannot be stopped half way.
    """

    def __init__(self, seed: int, ops: int, counted: bool = False) -> None:
        if counted:
            ops = max(min(ops, COUNTED_OPS) // SVC_SESSIONS, 1) * SVC_SESSIONS
        super().__init__(seed, ops, counted)

    def setup(self) -> None:
        self.config = ServiceConfig(
            workload_factory=_svc_workload,
            shards=2,
            sessions=SVC_SESSIONS,
            txns_per_session=self.ops // SVC_SESSIONS,
            buffer_pages=32,
            queue_depth=8,
            admission_policy="wait",
            group_commit_size=4,
            scheduling="deterministic",
            replication=False,
            observe=False,
            seed=self.seed,
        )
        self.service = ShardedService(self.config)
        self._probes = [
            StackProbe(shard.manager.device, shard.manager, shard.db)
            for shard in self.service.shards
        ]
        self._guard()

    def _guard(self) -> None:
        for shard in self.service.shards:
            sessions = sum(
                1 for s in self.service.sessions if s.shard == shard.index
            )
            geometry = shard.manager.wal.chip.geometry
            capacity = geometry.total_pages * geometry.page_size
            shard_ops = sessions * self.config.txns_per_session
            projected = shard_ops * _SVC_WAL_BYTES_PER_OP / capacity
            if projected > WAL_FILL_LIMIT:
                raise HeadroomError(
                    f"shard {shard.index}: {shard_ops} ops x "
                    f"{_SVC_WAL_BYTES_PER_OP} B fill {projected:.2f} of the "
                    f"{capacity} B log (limit {WAL_FILL_LIMIT}); the service "
                    f"never checkpoints: 'WAL device full' mid-run"
                )

    def instrument(self, spans: Spans) -> None:
        for probe in self._probes:
            probe.instrument(spans)
        for shard in self.service.shards:
            shard.execute_batch = _timed_batch(shard.execute_batch, spans)
            shard.admission.offer = _counted_offer(shard.admission.offer, spans)

    def probes(self) -> List[StackProbe]:
        return self._probes

    def execute(self) -> None:
        self.result = self.service.run()
        self.digests = self.result.digests()
        for shard in self.service.shards:
            self.sim_lat_us.extend(shard.latencies_us)
        if self.limit <= COUNTED_OPS:
            self.prefix = self.fingerprint()

    def sim_ops_per_s(self, raw: Dict[str, float]) -> float:
        return self.result.tps

    def service_counts(self) -> Dict[str, float]:
        return {
            "service.batches": sum(
                len(shard.dispatch_log) for shard in self.service.shards
            ),
            "service.shed": self.result.txns_shed,
        }

    def verify(self, traced: bool) -> Tuple[int, List[str]]:
        errors = []
        result = self.result
        if result.txns_completed + result.txns_shed != self.limit:
            errors.append(
                f"{result.txns_completed} completed + {result.txns_shed} shed "
                f"of {self.limit} attempted"
            )
        if traced:
            report = result.shard_reports[0]
            replayed = replay_shard_stream(self.config, 0, report.dispatch_log)
            if replayed != report.media_digest:
                errors.append("serial replay of shard 0 differs from its digest")
        return result.txns_shed + len(errors), errors


def _timed_batch(execute_batch: Callable[..., float], spans: Spans) -> Callable:
    span, per_op = spans.batch, spans.batch_op_s

    def timed(requests: Any) -> float:
        start = perf_counter()
        try:
            return execute_batch(requests)
        finally:
            elapsed = perf_counter() - start
            span.total_s += elapsed
            span.calls += 1
            per_op.extend([elapsed / len(requests)] * len(requests))

    return timed


def _counted_offer(offer: Callable[..., Any], spans: Spans) -> Callable:
    def counted(request: Any) -> Any:
        was_parked = request.parked
        decision = offer(request)
        if decision is AdmissionDecision.WAIT and not was_parked:
            spans.admission_waits += 1
        return decision

    return counted


RUNS = {
    "tpcb_evict_ipa": TpcbEvictIpa,
    "ycsb_b_cold": YcsbBCold,
    "ftl_overwrite_trad": FtlOverwriteTrad,
    "svc_ycsb_a_2shard": SvcYcsbA2Shard,
}
