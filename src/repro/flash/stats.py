"""Operation counters shared by the chip, the FTLs and the harness.

Every metric of the paper's Table 1 is derived from these counters:

* ``host_reads`` / ``host_writes`` — page-granular I/O issued by the DBMS;
* ``gc_page_migrations`` / ``gc_erases`` — garbage-collection overhead;
* ``page_invalidations`` — the quantity IPA attacks (67 % reduction claim);
* byte counters — DBMS write-amplification (Figure 1).

Every stats block of a stack (these two, the storage manager's, the
buffer pool's, the transaction layer's and the log's) is a
:class:`Counters`: plain fields, incremented in place where the event
happens and counted on every run, observed or not.  A harness measures
a phase with one ``snapshot()`` before it and one ``diff()`` after it;
an observed run's artefact only *reads* the intervals (as the run's
``ExperimentResult`` and the sampler's series).
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from typing import Any, Iterable, TypeVar

_C = TypeVar("_C", bound="Counters")


def _interval(now: Any, before: Any) -> Any:
    """What a container field gained since ``before``: a list's entries
    appended since, a dict's interval of each key (a key new since
    ``before`` counts from empty), a number's increase."""
    if isinstance(now, list):
        return now[len(before):]
    if isinstance(now, dict):
        return {
            key: _interval(value, before.get(key, type(value)()))
            for key, value in now.items()
        }
    return now - before


class Counters:
    """Snapshot / interval / sum over a dataclass of counters.

    A number field counts events.  A container field (a list, or a dict
    of numbers or lists) collects them: a list gains one entry per event
    and a dict keeps one such counter per key.  A container field has a
    ``default_factory`` (a dataclass allows no mutable default), which
    is how :meth:`snapshot` and :meth:`diff` tell it from a number
    without a call per field.
    """

    def snapshot(self: _C) -> _C:
        """Return an independent copy of the current counters (a
        container's copy is its interval since empty)."""
        return type(self)(
            **{
                f.name: getattr(self, f.name)
                if f.default_factory is MISSING
                else _interval(getattr(self, f.name), f.default_factory())
                for f in fields(self)
            }
        )

    def diff(self: _C, earlier: _C) -> _C:
        """Counters accumulated since ``earlier`` was snapshotted."""
        return type(self)(
            **{
                f.name: getattr(self, f.name) - getattr(earlier, f.name)
                if f.default_factory is MISSING
                else _interval(getattr(self, f.name), getattr(earlier, f.name))
                for f in fields(self)
            }
        )

    @classmethod
    def total(cls: type[_C], parts: Iterable[_C]) -> _C:
        """Field-wise sum of ``parts`` (a device's chips or regions)."""
        out = cls()
        names = [f.name for f in fields(cls)]
        for part in parts:
            for name in names:
                setattr(out, name, getattr(out, name) + getattr(part, name))
        return out


@dataclass
class FlashStats(Counters):
    """Cumulative counters for one chip (device-level events)."""

    page_reads: int = 0
    page_programs: int = 0
    page_reprograms: int = 0  # in-place appends at the physical layer
    block_erases: int = 0
    bytes_read: int = 0
    bytes_programmed: int = 0
    ecc_corrected_bits: int = 0
    ecc_uncorrectable_events: int = 0
    disturb_bit_flips: int = 0

    @property
    def program_ops(self) -> int:
        """All program pulses (first-time + reprogram), the ledger's
        physical anchor for conservation checks."""
        return self.page_programs + self.page_reprograms


@dataclass
class DeviceStats(Counters):
    """Counters at the FTL / host-interface level.

    ``host_*`` counters describe traffic as the DBMS sees it; ``gc_*``
    counters describe work the device does on its own behalf.  The
    ``per_host_write`` ratios of Table 1 divide the latter by the former.
    The last eight are backend-specific (zero where a backend has no such
    event).
    """

    host_reads: int = 0
    host_writes: int = 0
    host_delta_writes: int = 0  # write_delta() commands (IPA-native only)
    host_bytes_read: int = 0
    host_bytes_written: int = 0
    page_invalidations: int = 0
    in_place_appends: int = 0
    out_of_place_writes: int = 0
    gc_page_migrations: int = 0
    gc_erases: int = 0
    trims: int = 0
    # The page-mapping FTL's GC (page-mapping, IPA and NoFTL backends)
    wear_leveling_moves: int = 0  # static wear-leveling victim picks
    retired_blocks: int = 0  # blocks retired after exceeding endurance
    background_gc_migrations: int = 0  # moves by the incremental collector
    background_gc_erases: int = 0  # erases by the incremental collector
    gc_emergency_syncs: int = 0  # foreground ops that fell back to sync GC
    # IplStore
    log_sector_flushes: int = 0  # log sectors partially programmed
    merges: int = 0  # block merges (IPL's GC)
    log_page_reads: int = 0  # log pages read for reconstruction/merge

    @property
    def total_host_write_ops(self) -> int:
        """Whole-page writes plus delta writes (the Table-1 denominator)."""
        return self.host_writes + self.host_delta_writes

    @property
    def gc_overhead(self) -> int:
        """GC page migrations plus GC erases."""
        return self.gc_page_migrations + self.gc_erases

    @property
    def migrations_per_host_write(self) -> float:
        """GC page migrations per host write (Table 1, row 5)."""
        denom = self.total_host_write_ops
        return self.gc_page_migrations / denom if denom else 0.0

    @property
    def erases_per_host_write(self) -> float:
        """GC erases per host write (Table 1, row 6)."""
        denom = self.total_host_write_ops
        return self.gc_erases / denom if denom else 0.0
