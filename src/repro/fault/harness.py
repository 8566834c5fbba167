"""Differential crash-recovery checker.

The experiment, per crash point:

1. **Oracle pass** — run a deterministic transactional workload crash-free
   with a *counting* injector attached, measuring the total number of
   mutating flash operations the update phase performs.
2. **Crash pass** — rerun the identical workload on a fresh simulated
   stack with the injector armed at one of those op counts.  The armed
   operation is torn at a seeded byte cut and :class:`PowerLossError`
   unwinds the workload wherever it happens to be: mid-update,
   mid-group-commit, mid-eviction, mid-GC.
3. **Remount** (:func:`remount`) — construct an *entirely fresh* stack
   (new FTL objects with mappings rebuilt from OOB metadata, new buffer
   pool, new :class:`WriteAheadLog` mounted over the surviving log chip
   — zero pre-crash Python state) and run :func:`repro.engine.wal.recover`.
4. **Differential check** — the durable-frame count ``c`` read off the
   log device must satisfy ``completed <= c <= completed + 1``
   (a transaction whose commit frame fully landed is committed even if
   the crash hit before the ack), and the table contents extracted from
   the recovered stack must equal a shadow dict replaying exactly the
   first ``c`` transactions of the plan.

The same plan, geometry and seeds are used for every backend of
``repro.stack.MOUNTABLE``, so a recovery divergence between
architectures fails the same way a wrong recovery does — this is the
paper's "recovery is NOT impacted" claim, checked bit-for-bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.core.config import SCHEME_2X4
from repro.engine.schema import Column, ColumnType, Schema
from repro.engine.wal import recover
from repro.fault.injector import FaultInjector, PowerLossError
from repro.flash.chip import FlashChip
from repro.flash.device import FlashDevice
from repro.flash.geometry import FlashGeometry
from repro.stack import StackSpec
from repro.storage.manager import StorageManager

if TYPE_CHECKING:
    from repro.service.replication import ReplicationLink

N_PAGES = 30
N_ROWS = 200
#: Long enough that out-of-place eviction traffic wraps the small device
#: and garbage collection runs *inside* the crash window — erase and
#: GC-migration ops must be tearable, not just host writes.
N_UPDATE_TXNS = 200
PLAN_SEED = 0xC4A5

SCHEMA = Schema(
    [
        Column("k", ColumnType.INT32),
        Column("v", ColumnType.INT64),
        Column("pad", ColumnType.CHAR, 40),
    ]
)

#: The fault preset: OP 0.2, four buffer frames, a WAL and a small data
#: chip so the update phase actually exercises GC — 8 blocks of 8 pages
#: back ~16 heap pages of live data, so out-of-place traffic recycles
#: blocks continuously, even on the IPA backends, whose in-place appends
#: absorb most but not all of the update stream.
FAULT_SPEC = StackSpec(
    scheme=SCHEME_2X4,
    geometry=FlashGeometry(page_size=1024, oob_size=128, pages_per_block=8, blocks=8),
    over_provisioning=0.2,
    buffer_pages=4,
    with_wal=True,
    wal_geometry=FlashGeometry(
        page_size=1024, oob_size=16, pages_per_block=8, blocks=16
    ),
)


def fault_spec(backend: str, **variant: Any) -> StackSpec:
    """:data:`FAULT_SPEC` on ``backend``; ``variant`` sets ``channels``,
    ``wal_channels`` (in-flight ops on either device are torn at power
    loss) or ``background_gc`` (crashes land between budgeted GC steps).
    """
    return replace(FAULT_SPEC, architecture=backend, **variant)


def make_plan(seed: int = PLAN_SEED) -> list[tuple[int, int]]:
    """The update phase: ``(row_key, new_value)`` per transaction.

    Values are unique per transaction so every update changes bytes and
    therefore logs exactly one WAL record — keeping the frame count and
    the transaction count in lockstep for the differential check.
    """
    rng = random.Random(seed)
    return [
        (rng.randrange(N_ROWS), 100_000 + j) for j in range(N_UPDATE_TXNS)
    ]


def shadow_state(plan: list[tuple[int, int]], n_txns: int) -> dict[int, int]:
    """Expected ``k -> v`` after the first ``n_txns`` of the plan."""
    state = {k: 1000 + k for k in range(N_ROWS)}
    for k, v in plan[:n_txns]:
        state[k] = v
    return state


class FaultStack:
    """Fresh chips + stack for one spec, setup phase run and checkpointed.

    A spec that cannot be remounted (IPL) is refused before any flash is
    built.  Also the one driver of the plan, ungrouped
    (:meth:`run_updates`) or in WAL commit groups (:meth:`run_groups`),
    and of the power loss (:meth:`run_armed`).
    """

    def __init__(self, spec: StackSpec) -> None:
        spec.check_mountable()
        self.db, self.manager = spec.build()
        self.data = self.manager.device.chip
        self.wal = self.manager.wal.chip
        self.table = self.db.create_table("t", SCHEMA, n_pages=N_PAGES, pk="k")
        for k in range(N_ROWS):
            with self.db.begin("load"):
                self.table.insert({"k": k, "v": 1000 + k, "pad": "x"})
        self.db.checkpoint()
        #: Plan transactions acknowledged by :meth:`run_groups`.
        self.acked = 0

    def _bump(self, k: int, v: int) -> None:
        with self.db.begin("bump"):
            self.table.update_field(k, "v", v)

    def run_updates(self, plan: list[tuple[int, int]]) -> None:
        """The plan, one transaction (and one WAL commit) at a time."""
        for k, v in plan:
            self._bump(k, v)

    def apply_group(self, group: Sequence[tuple[int, int]]) -> float:
        """One WAL commit group of plan updates; its duration (sim us)."""
        clock = self.manager.clock
        start_us = clock.now_us
        with self.manager.wal_group():
            for k, v in group:
                self._bump(k, v)
        return clock.now_us - start_us

    def run_groups(
        self,
        plan: list[tuple[int, int]],
        group_size: int,
        link: ReplicationLink | None = None,
    ) -> None:
        """The plan in WAL commit groups, each shipped over ``link``.

        A group is acknowledged (:attr:`acked`) once it is durable here
        and, with a link, applied on the standby — so after a power loss
        :attr:`acked` is exactly the acknowledged prefix.
        """
        for start in range(0, len(plan), group_size):
            group = plan[start : start + group_size]
            self.apply_group(group)
            if link is not None:
                link.ship(group)
            self.acked += len(group)

    def run_armed(
        self, injector: FaultInjector, drive: Callable[[], None]
    ) -> None:
        """Run ``drive`` with ``injector`` attached to both devices.

        When the injector cuts the power, whatever is still in flight
        dies with it on *both* devices (``power_loss``; a no-op on a bare
        chip): a multi-channel device reverts the array ops that had not
        started and re-tears the one executing per channel at a seeded
        cut.  The log device is torn too — appends past the flush
        barrier are acked-durable, but the unsynced tail of the frame
        being written must not survive.
        """
        injector.attach(self.data, self.wal)
        try:
            drive()
        except PowerLossError:
            self.data.power_loss()
            self.wal.power_loss()
        finally:
            FaultInjector.detach(self.data, self.wal)


def remount(
    spec: StackSpec,
    data: FlashChip | FlashDevice,
    wal: FlashChip | FlashDevice,
) -> tuple[StorageManager, int, int]:
    """Mount brand-new Python objects over surviving devices and recover.

    :meth:`StackSpec.mount` rebuilds the FTL mapping from OOB metadata
    and mounts a fresh WAL over the log device — zero pre-crash Python
    state — then :func:`recover` replays the log.

    Returns:
        ``(manager, durable frames found on the log, records applied)``.
    """
    manager = spec.mount(data, wal)
    durable = len(manager.wal.durable_frames())
    applied = recover(manager, manager.wal)
    return manager, durable, applied


def divergence(
    recovered: dict[int, int], expected: dict[int, int], label: str, prefix: str
) -> str:
    """How a ``label`` table differs from the expected ``prefix`` prefix."""
    diffs = {
        k: (recovered.get(k), expected.get(k))
        for k in set(recovered) | set(expected)
        if recovered.get(k) != expected.get(k)
    }
    sample = dict(list(diffs.items())[:5])
    return (
        f"{label} state diverges from the {prefix} prefix on "
        f"{len(diffs)} keys, e.g. {sample} ({label}, expected)"
    )


def extract_state(manager: StorageManager) -> dict[int, int]:
    """``k -> v`` scanned straight off the pages of the heap's LBA range.

    Bypasses every volatile structure (heap cursors, hash index): only
    the storage manager's fetch path — reconstruction, torn repair,
    checksum — stands between the flash image and the rows.
    """
    state: dict[int, int] = {}
    for lba in range(N_PAGES):
        try:
            with manager.page(lba) as page:
                for _slot, record in page.live_records():
                    row = SCHEMA.decode(record)
                    state[row["k"]] = row["v"]
        except KeyError:
            continue  # page never reached flash
    return state


def run_oracle(spec: StackSpec) -> tuple[int, dict[int, int]]:
    """Crash-free pass: (mutating-op count of the update phase, final state)."""
    plan = make_plan()
    stack = FaultStack(spec)
    counter = FaultInjector(crash_after_ops=None)
    stack.run_armed(counter, lambda: stack.run_updates(plan))
    stack.manager.flush_all()
    return counter.ops_seen, extract_state(stack.manager)


@dataclass
class CrashOutcome:
    """Result of one crash point, with everything needed to replay it."""

    backend: str
    crash_point: int
    completed: int
    durable_frames: int
    crash_op: str
    records_applied: int
    torn_repairs: int
    ok: bool
    detail: str = ""


def run_crash_point(
    spec: StackSpec, crash_point: int, seed: int
) -> CrashOutcome:
    """One full crash/remount/verify cycle at a given op count."""
    plan = make_plan()
    stack = FaultStack(spec)
    injector = FaultInjector(crash_after_ops=crash_point, seed=seed)
    stack.run_armed(injector, lambda: stack.run_updates(plan))
    # Completed = the commit fully returned: the per-type counter is
    # incremented after the WAL flush, so a crash inside a commit leaves
    # it untouched.
    completed = stack.db.txn_stats.by_type.get("bump", 0)
    manager, durable, applied = remount(spec, stack.data, stack.wal)
    recovered = extract_state(manager)
    expected = shadow_state(plan, durable)
    detail = ""
    if not completed <= durable <= completed + 1:
        detail = (
            f"durable frame count {durable} outside "
            f"[{completed}, {completed + 1}]"
        )
    elif recovered != expected:
        detail = divergence(recovered, expected, "recovered", "committed")
    return CrashOutcome(
        backend=spec.architecture,
        crash_point=crash_point,
        completed=completed,
        durable_frames=durable,
        crash_op=injector.crash_op or "<none>",
        records_applied=applied,
        torn_repairs=manager.stats.torn_repairs,
        ok=not detail,
        detail=detail,
    )


@dataclass
class SweepResult:
    """Aggregate of a seeded sweep (crash or failover) over one backend."""

    backend: str
    points: int = 0
    failures: list = field(default_factory=list)
    torn_repairs: int = 0
    ops_total: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures


def _point_job(args: tuple[Callable[..., Any], StackSpec, int, int]) -> Any:
    """Picklable work unit for a parallel sweep: one point."""
    run_point, spec, point, point_seed = args
    return run_point(spec, point, seed=point_seed)


def sweep(
    run_point: Callable[..., Any],
    spec: StackSpec,
    ops_total: int,
    n_points: int,
    seed: int,
    jobs: int,
    kind: str,
) -> SweepResult:
    """``run_point`` at ``n_points`` seeded op counts in ``[1, ops_total]``.

    Every point gets a distinct tear seed derived from the sweep seed
    (``seed ^ point``), so a reported failure is replayable from
    ``(spec, crash_point, seed)`` alone, and the merged result is
    identical at any ``jobs`` count (0 = all cores, 1 = serial).
    ``kind`` names the sweep in the per-point progress labels.
    """
    from repro.bench.parallel import parallel_map

    rng = random.Random(seed)
    if n_points >= ops_total:
        points = list(range(1, ops_total + 1))
    else:
        points = sorted(rng.sample(range(1, ops_total + 1), n_points))
    name = spec.architecture
    result = SweepResult(backend=name, ops_total=ops_total)
    for outcome in parallel_map(
        _point_job,
        [(run_point, spec, point, seed ^ point) for point in points],
        jobs=jobs,
        labels=[f"{name} {kind} @ op {point}" for point in points],
    ):
        result.points += 1
        result.torn_repairs += outcome.torn_repairs
        if not outcome.ok:
            result.failures.append(outcome)
    return result


def run_sweep(
    backend: str | StackSpec,
    n_points: int,
    seed: int = 0xFA117,
    jobs: int = 1,
) -> SweepResult:
    """Seeded random crash-point sweep over one backend.

    ``backend`` may be a plain backend name (its :func:`fault_spec`) or
    a spec (multi-channel / background-GC variants); the points are
    drawn by :func:`sweep` over the oracle's op count.
    """
    spec = fault_spec(backend) if isinstance(backend, str) else backend
    ops_total, _oracle_state = run_oracle(spec)
    return sweep(
        run_crash_point, spec, ops_total, n_points, seed, jobs, "crash"
    )
