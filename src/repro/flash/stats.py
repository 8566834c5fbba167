"""Operation counters shared by the chip, the FTLs and the harness.

Every metric of the paper's Table 1 is derived from these counters:

* ``host_reads`` / ``host_writes`` — page-granular I/O issued by the DBMS;
* ``gc_page_migrations`` / ``gc_erases`` — garbage-collection overhead;
* ``page_invalidations`` — the quantity IPA attacks (67 % reduction claim);
* byte counters — DBMS write-amplification (Figure 1).

Every counter is a plain numeric field, incremented in place where the
event happens and counted on every run, observed or not; an observed
run's artefact only *reads* them (as the run's ``ExperimentResult``
fields and the sampler's series).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, TypeVar

_C = TypeVar("_C", bound="_Counters")


class _Counters:
    """Snapshot / interval / reset / sum over a dataclass of numbers."""

    def snapshot(self: _C) -> _C:
        """Return an independent copy of the current counters."""
        return type(self)(**{f.name: getattr(self, f.name) for f in fields(self)})

    def diff(self: _C, earlier: _C) -> _C:
        """Counters accumulated since ``earlier`` was snapshotted."""
        return type(self)(
            **{
                f.name: getattr(self, f.name) - getattr(earlier, f.name)
                for f in fields(self)
            }
        )

    def reset(self) -> None:
        """Zero all counters."""
        for f in fields(self):
            setattr(self, f.name, 0)

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
class FlashStats(_Counters):
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
class DeviceStats(_Counters):
    """Counters at the FTL / host-interface level.

    ``host_*`` counters describe traffic as the DBMS sees it; ``gc_*``
    counters describe work the device does on its own behalf.  The
    ``per_host_write`` ratios of Table 1 divide the latter by the former.
    The last eight are backend-specific (zero where a backend has no such
    event); the harness reports them under ``ExperimentResult.extra``.
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
    def migrations_per_host_write(self) -> float:
        """GC page migrations per host write (Table 1, row 5)."""
        denom = self.total_host_write_ops
        return self.gc_page_migrations / denom if denom else 0.0

    @property
    def erases_per_host_write(self) -> float:
        """GC erases per host write (Table 1, row 6)."""
        denom = self.total_host_write_ops
        return self.gc_erases / denom if denom else 0.0
