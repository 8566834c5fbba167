"""Write-attribution ledger and LBA death-time accounting.

The paper's headline numbers are *decompositions* — which fraction of
programs IPA turns into erase-free appends, and where the remaining GC
traffic comes from — but :class:`~repro.flash.stats.FlashStats` only
counts aggregates.  This module adds the missing axis: every physical
page program / reprogram / partial program and every block erase is
tagged with the *cause* that issued it.

Causes are ambient, not threaded through call signatures.  The simulator
is single-threaded (the same precedent as the tracer's span stack), so
:class:`WriteLedger` keeps a cause stack; each layer pushes its cause
around the work it initiates::

    lg = self.ledger
    if lg.enabled:
        with lg.cause("gc_migration"):
            self.chip.program_page(ppn, data, oob)

and :class:`~repro.flash.chip.FlashChip` charges the innermost cause
from its kernel's erase body and from the tail its program, reprogram
and partial-program bodies share — the exact sites that increment
``FlashStats``, per-op and batched alike — so the per-cause counts can
never drift from the physical totals.  The conservation invariant
(per-cause sums equal the chips' counters, byte for byte) is
re-derived independently by ``repro.flash.sanitize`` under
``REPRO_SANITIZE=1``.

The ``oob_meta`` cause is byte-only: the 17-byte durable mapping record
never owns a program operation (it rides inside one), so the FTL
*shifts* those bytes from the ambient cause after the program,
keeping byte conservation exact while making FTL metadata overhead
visible in the WA waterfall.

:class:`LifetimeTracker` measures per-LBA write-to-invalidate lifetimes
("death times") on the simulated clock, split by the cause that wrote
the page — the input the GC-policy and write-stream-separation roadmap
items need.  Memory is bounded: one dict entry per live logical page and
fixed-bucket histograms per cause.

Both objects follow the NULL-object zero-cost-when-off pattern
(``NULL_LEDGER`` / ``NULL_LIFETIMES``): the disabled cost at every hook
is one attribute load and one bool test, guarded by
``benchmarks/test_sanitize_overhead.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from repro.obs.metrics import Histogram

if TYPE_CHECKING:
    from repro.flash.chip import FlashChip
    from repro.flash.stats import FlashStats

__all__ = [
    "WRITE_CAUSES",
    "CauseRecord",
    "WriteLedger",
    "NULL_LEDGER",
    "LifetimeTracker",
    "NULL_LIFETIMES",
    "LIFETIME_BUCKETS_US",
    "ERASE_COUNT_BUCKETS",
    "erase_count_histogram",
]

#: Every cause a physical write can be attributed to.  ``unattributed``
#: catches traffic issued outside any pushed scope (e.g. a test poking
#: the chip directly) so conservation holds unconditionally.
WRITE_CAUSES: tuple[str, ...] = (
    "host_heap",
    "wal",
    "oob_meta",
    "gc_migration",
    "wear_leveling",
    "unattributed",
)

#: LBA lifetime buckets (simulated us): sub-millisecond rewrites through
#: pages that survive the better part of a long run.
LIFETIME_BUCKETS_US: tuple[float, ...] = (
    100.0, 1_000.0, 10_000.0, 100_000.0,
    1_000_000.0, 10_000_000.0, 100_000_000.0,
)

#: Per-block erase-count buckets for the wear histogram.
ERASE_COUNT_BUCKETS: tuple[float, ...] = (
    0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 250.0, 1_000.0,
)


class CauseRecord:
    """Per-cause tallies: three op kinds, bytes, and erases."""

    __slots__ = ("cause", "programs", "reprograms", "partial_programs",
                 "bytes", "erases")

    def __init__(self, cause: str) -> None:
        self.cause = cause
        self.programs = 0
        self.reprograms = 0
        self.partial_programs = 0
        self.bytes = 0
        self.erases = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "programs": self.programs,
            "reprograms": self.reprograms,
            "partial_programs": self.partial_programs,
            "bytes": self.bytes,
            "erases": self.erases,
        }


class _CauseScope:
    """Context manager pairing ``push_cause`` / ``pop_cause``."""

    __slots__ = ("_ledger", "_cause")

    def __init__(self, ledger: "WriteLedger", cause: str) -> None:
        self._ledger = ledger
        self._cause = cause

    def __enter__(self) -> "WriteLedger":
        self._ledger.push_cause(self._cause)
        return self._ledger

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self._ledger.pop_cause()


class WriteLedger:
    """Ambient-cause attribution of every physical write and erase.

    The chip-side hooks (``on_program`` / ``on_erase``) charge the
    innermost pushed cause; :meth:`watch_chip` records a baseline
    snapshot of each chip's :class:`FlashStats` so conservation is
    checked against *deltas* — the ledger may attach to a stack that
    already carries load-phase traffic.
    """

    __slots__ = ("by_cause", "_stack", "_current", "_chips")

    enabled = True

    def __init__(self) -> None:
        self.by_cause: dict[str, CauseRecord] = {
            c: CauseRecord(c) for c in WRITE_CAUSES
        }
        self._stack: list[str] = ["unattributed"]
        self._current: CauseRecord = self.by_cause["unattributed"]
        #: (chip, FlashStats baseline) pairs; leaf chips only.
        self._chips: list[tuple[FlashChip, FlashStats]] = []

    # ------------------------------------------------------------------ #
    # Ambient cause stack
    # ------------------------------------------------------------------ #

    @property
    def current_cause(self) -> str:
        return self._current.cause

    def push_cause(self, cause: str) -> None:
        record = self.by_cause.get(cause)
        if record is None:
            record = self.by_cause.setdefault(cause, CauseRecord(cause))
        self._stack.append(cause)
        self._current = record

    def pop_cause(self) -> None:
        self._stack.pop()
        self._current = self.by_cause[self._stack[-1]]

    def cause(self, name: str) -> _CauseScope:
        """``with ledger.cause("gc_migration"): ...``"""
        return _CauseScope(self, name)

    # ------------------------------------------------------------------ #
    # Chip-side hooks (the FlashStats increment sites mirror into these)
    # ------------------------------------------------------------------ #

    def on_program(self, nbytes: int, reprogram: bool, partial: bool) -> None:
        record = self._current
        if partial:
            record.partial_programs += 1
        elif reprogram:
            record.reprograms += 1
        else:
            record.programs += 1
        record.bytes += nbytes

    def on_erase(self) -> None:
        self._current.erases += 1

    def shift_bytes(self, cause: str, nbytes: int) -> None:
        """Reattribute ``nbytes`` of the innermost cause to ``cause``.

        Used for piggybacked metadata (the OOB mapping record) that rides
        inside another cause's program: ops stay with the carrier, bytes
        move, totals are conserved.
        """
        self._current.bytes -= nbytes
        record = self.by_cause.get(cause)
        if record is None:
            record = self.by_cause.setdefault(cause, CauseRecord(cause))
        record.bytes += nbytes

    # ------------------------------------------------------------------ #
    # Conservation against the physical counters
    # ------------------------------------------------------------------ #

    def watch_chip(self, chip: "FlashChip") -> None:
        """Baseline one leaf chip's stats for delta-based conservation."""
        for watched, _baseline in self._chips:
            if watched is chip:
                return
        self._chips.append((chip, chip.stats.snapshot()))

    def totals(self) -> dict[str, int]:
        """Ledger-side sums across every cause."""
        out = {"programs": 0, "reprograms": 0, "partial_programs": 0,
               "bytes": 0, "erases": 0}
        for record in self.by_cause.values():
            out["programs"] += record.programs
            out["reprograms"] += record.reprograms
            out["partial_programs"] += record.partial_programs
            out["bytes"] += record.bytes
            out["erases"] += record.erases
        return out

    def physical_totals(self) -> dict[str, int]:
        """Chip-side deltas since :meth:`watch_chip` across watched chips."""
        moved = [chip.stats.diff(baseline) for chip, baseline in self._chips]
        return {
            "programs": sum(d.page_programs for d in moved),
            "reprogram_like": sum(d.page_reprograms for d in moved),
            "bytes": sum(d.bytes_programmed for d in moved),
            "erases": sum(d.block_erases for d in moved),
        }

    def conservation_errors(self) -> list[str]:
        """Human-readable mismatches (empty list == conserved)."""
        got = self.totals()
        want = self.physical_totals()
        errors: list[str] = []
        if got["programs"] != want["programs"]:
            errors.append(
                f"programs: ledger {got['programs']} != "
                f"chips {want['programs']}"
            )
        reprogram_like = got["reprograms"] + got["partial_programs"]
        if reprogram_like != want["reprogram_like"]:
            errors.append(
                f"reprograms+partials: ledger {reprogram_like} != "
                f"chips {want['reprogram_like']}"
            )
        if got["bytes"] != want["bytes"]:
            errors.append(
                f"bytes: ledger {got['bytes']} != chips {want['bytes']}"
            )
        if got["erases"] != want["erases"]:
            errors.append(
                f"erases: ledger {got['erases']} != chips {want['erases']}"
            )
        return errors

    def records(self) -> Iterator[CauseRecord]:
        """Per-cause records in declaration order (known causes first)."""
        return iter(list(self.by_cause.values()))


class _NullLedger(WriteLedger):
    """Shared disabled ledger: one attribute test per instrumented site.

    ``__slots__ = ()`` keeps the instance layout identical to the live
    class so the disabled ``enabled`` load costs exactly what the null
    object costs (see ``benchmarks/test_sanitize_overhead.py``).  The
    mutators are overridden to no-ops as a safety net for unguarded
    call sites — the singleton must never accumulate state.
    """

    __slots__ = ()
    enabled = False

    def push_cause(self, cause: str) -> None:
        pass

    def pop_cause(self) -> None:
        pass

    def on_program(self, nbytes: int, reprogram: bool, partial: bool) -> None:
        pass

    def on_erase(self) -> None:
        pass

    def shift_bytes(self, cause: str, nbytes: int) -> None:
        pass

    def watch_chip(self, chip: "FlashChip") -> None:
        pass


NULL_LEDGER = _NullLedger()


class LifetimeTracker:
    """Per-LBA write-to-invalidate lifetimes on the simulated clock.

    A *birth* is recorded when the host (re)writes an LBA out of place; a
    *death* is observed when that LBA is next rewritten or trimmed.  GC
    migrations move data without a logical death, and IPA in-place
    appends extend a page's life rather than ending it — which is
    exactly the asymmetry the paper exploits, and why death times are
    measured at the FTL's write/trim sites rather than at the chip.

    Memory is bounded: the birth table holds at most one entry per live
    logical page (keyed by owning FTL object, so NoFTL regions with
    overlapping LBA spaces cannot collide), and observations land in
    fixed-bucket histograms per cause plus one aggregate.
    """

    __slots__ = ("clock", "by_cause", "aggregate", "_births")

    enabled = True

    def __init__(self, clock: object) -> None:
        self.clock = clock
        #: Every cause's lifetimes in one histogram.
        self.aggregate = Histogram(
            "lba_lifetime_us",
            help="simulated LBA write-to-invalidate lifetime",
            bounds=LIFETIME_BUCKETS_US,
        )
        self.by_cause: dict[str, Histogram] = {
            c: Histogram(
                "lba_lifetime_us",
                help="simulated LBA write-to-invalidate lifetime",
                bounds=LIFETIME_BUCKETS_US,
            )
            for c in WRITE_CAUSES
        }
        #: (id(FTL), lba) -> (birth time us, cause at birth).
        self._births: dict[tuple[int, int], tuple[float, str]] = {}

    def _observe_death(self, key: tuple[int, int]) -> None:
        birth = self._births.pop(key, None)
        if birth is None:
            return
        birth_us, cause = birth
        lifetime = self.clock.now_us - birth_us  # type: ignore[attr-defined]
        self.by_cause[cause].observe(lifetime)
        self.aggregate.observe(lifetime)

    def on_write(self, ftl: object, lba: int, cause: str) -> None:
        """Host out-of-place write: the old version dies, a new one is born."""
        key = (id(ftl), lba)
        self._observe_death(key)
        if cause not in self.by_cause:
            cause = "unattributed"
        self._births[key] = (
            self.clock.now_us,  # type: ignore[attr-defined]
            cause,
        )

    def on_trim(self, ftl: object, lba: int) -> None:
        """Explicit invalidation without a rewrite."""
        self._observe_death((id(ftl), lba))

    @property
    def deaths(self) -> int:
        return sum(h.count for h in self.by_cause.values())

    @property
    def live_pages(self) -> int:
        return len(self._births)


class _NullLifetimeTracker(LifetimeTracker):
    """Shared disabled tracker (layout-matched, no-op hooks)."""

    __slots__ = ()
    enabled = False

    def __init__(self) -> None:  # noqa: D107 — never initialises state
        pass

    def on_write(self, ftl: object, lba: int, cause: str) -> None:
        pass

    def on_trim(self, ftl: object, lba: int) -> None:
        pass


NULL_LIFETIMES = _NullLifetimeTracker()


def erase_count_histogram(
    erase_counts: Iterable[int], bounds: tuple[float, ...] = ERASE_COUNT_BUCKETS
) -> Histogram:
    """Wear histogram over per-block erase counts."""
    hist = Histogram(
        "block_erase_count",
        help="per-block erase count at collection time",
        bounds=bounds,
    )
    for count in erase_counts:
        hist.observe(count)
    return hist
