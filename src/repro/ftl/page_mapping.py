"""The page-mapping FTL: one mapping table, its allocator and its GC.

The paper's three device architectures differ only in how a dirty page
reaches flash, so they share this one FTL:

* :class:`PageMappingFtl` itself is the conventional black-box SSD
  (Demo-Scenario 1, the [0x0] column of Table 1): every host page write
  lands in a fresh physical page and invalidates the previous one; greedy
  GC migrates and erases behind the host's back.  The on-device
  write-amplification that GC generates is the "major performance
  bottleneck" [4] IPA attacks.
* :class:`~repro.ftl.ipa_ftl.IpaFtl` overrides the write path only: the
  device reprograms a page in place when it can.
* A NoFTL :class:`~repro.ftl.noftl.Region` is this FTL over a slice of
  the chip's blocks, plus the ``write_delta`` command.

Out-of-place writes append into an *active block*; when the free-block
pool runs low, GC greedily reclaims the block with the fewest valid
pages (migrating those pages first).  The GC behaviour being identical
across the architectures is what makes the Table-1 comparison an
apples-to-apples one.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from repro.flash.chip import FlashChip
from repro.flash.errors import BadBlockError, EccUncorrectableError
from repro.flash.page import PageState
from repro.flash.sanitize import NULL_SANITIZER, sanitizer_from_env
from repro.flash.stats import DeviceStats
from repro.ftl.interface import DeviceFullError
from repro.ftl.oob_meta import (
    OOB_META_SIZE,
    has_oob_meta,
    pack_oob_meta,
    unpack_oob_meta,
)
from repro.obs.ledger import (
    NULL_LEDGER,
    NULL_LIFETIMES,
    LifetimeTracker,
    WriteLedger,
)
from repro.obs.trace import NULL_TRACER, NullTracer, Span, Tracer


class PageMappingFtl:
    """Page-granular mapping, allocation and GC over a set of owned blocks.

    Public methods take device LBAs; the mapping, the OOB mapping record
    and the error messages of a refused write use the FTL's own LBAs,
    ``lba - lba_base`` (the same for a whole-chip FTL, whose base is 0).

    Args:
        chip: The chip the blocks live on (any mode; pSLC halves logical
            capacity): a :class:`FlashChip` or a chip-shaped
            :class:`~repro.flash.device.FlashDevice`.  Both have
            ``execute_batch``, which moves a victim's valid pages as a
            list of ``(source, destination)`` pairs in one call.
        over_provisioning: Fraction of usable pages withheld from the
            logical address space.  GC cannot function at 0.
        background_gc: Move reclamation off the eviction hot path: every
            foreground allocation performs at most ``gc_migration_budget``
            incremental page migrations (watermark-driven) instead of
            reclaiming whole blocks synchronously, so no single host
            write absorbs an entire victim's migrations + erase.  The
            synchronous path remains as an emergency fallback when the
            budgeted collector cannot keep up, so correctness never
            depends on the budget.
        logical_pages: Cap the LBAs this FTL exposes (the surplus
            physical space becomes extra GC headroom); None exposes all
            the over-provisioning leaves.
        block_ids: Erase blocks this FTL owns; None owns the whole chip.
            FTLs sharing a chip own disjoint sets (NoFTL regions
            partition it).
    """

    #: Free blocks kept in reserve: GC runs whenever the pool shrinks to
    #: this level.
    gc_spare_blocks = 2

    #: Free-block level that wakes the background collector, above the
    #: emergency threshold: it starts early enough to amortize a whole
    #: victim's migrations across many foreground writes before the pool
    #: hits the synchronous threshold.
    gc_low_watermark = 4

    #: Page migrations the background collector performs per foreground
    #: allocation while the free pool is below the low watermark.
    gc_migration_budget = 8

    #: Static wear leveling: when the most-worn block's erase count
    #: exceeds the least-worn *occupied* block's by this gap, GC picks the
    #: cold block as victim (moving its data levels the wear).  ``None``
    #: is pure greedy.
    wear_leveling_gap: int | None = None

    #: First device LBA this FTL serves (a region sets its own).
    lba_base = 0

    #: Appended to the error of a read of an unwritten LBA.
    _where = ""

    #: Observability: replaced per-instance by :meth:`attach`.
    tracer = NULL_TRACER

    #: Physics sanitizer (REPRO_SANITIZE=1): full conservation/bijectivity
    #: audits after victim erases and remounts, cheap pair checks per write.
    sanitizer = NULL_SANITIZER

    #: Write-attribution ledger and LBA lifetime tracker: replaced
    #: per-instance by :meth:`attach`.  The FTL is where *causes* are
    #: known — GC migrations and wear-leveling moves are wrapped in their
    #: cause scope here, OOB metadata bytes are shifted to ``oob_meta``,
    #: and logical write/trim events feed the death-time histograms.
    ledger = NULL_LEDGER
    lifetimes = NULL_LIFETIMES

    def __init__(
        self,
        chip: FlashChip,
        over_provisioning: float = 0.10,
        background_gc: bool = False,
        *,
        logical_pages: int | None = None,
        block_ids: Iterable[int] | None = None,
    ) -> None:
        if block_ids is None:
            block_ids = range(chip.geometry.blocks)
        if not 0.0 < over_provisioning < 1.0:
            raise ValueError("over_provisioning must be in (0, 1)")
        self.block_ids = list(block_ids)
        if len(self.block_ids) <= self.gc_spare_blocks + 1:
            raise ValueError(
                f"need more than {self.gc_spare_blocks + 1} blocks, "
                f"got {len(self.block_ids)}"
            )
        for block_id in self.block_ids:
            # Allocation composes ppns from these without re-checking.
            chip.geometry.check_block(block_id)
        self.chip = chip
        self.stats = DeviceStats()
        self.sanitizer = sanitizer_from_env()
        self.background_gc = background_gc
        #: Victim currently being reclaimed incrementally (+ scan cursor
        #: into ``_usable_offsets``).  Lives across foreground ops.
        self._bg_victim: int | None = None
        self._bg_cursor = 0
        #: Victim picked by static wear leveling (vs. greedy): its
        #: migrations and erase are attributed to ``wear_leveling``.
        self._wear_victim: int | None = None
        self._usable_offsets = chip.usable_pages_in_block()
        self._free: deque[int] = deque(self.block_ids)
        self._active: int | None = None
        self._cursor = 0
        #: lba -> ppn and ppn -> lba (valid pages only).
        self.mapping: dict[int, int] = {}
        self._rmap: dict[int, int] = {}
        #: Per-block count of valid pages.
        self._valid: dict[int, int] = {b: 0 for b in self.block_ids}
        #: Per-ppn number of delta-records appended since the page was
        #: written (device-side metadata backing write_delta's OOB slots).
        self.appends_done: dict[int, int] = {}
        #: Durable mapping metadata (see :mod:`repro.ftl.oob_meta`): when
        #: the OOB can hold the 17-byte record, every out-of-place write
        #: stamps ``(lba, seq)`` into the OOB tail so the mapping dicts
        #: above can be rebuilt from media after a crash.
        oob_size = chip.geometry.oob_size
        self._oob_meta_enabled = oob_size >= OOB_META_SIZE
        self._meta_off = oob_size - OOB_META_SIZE
        self._oob_size = oob_size
        #: What a write puts in front of the record when the caller sends
        #: no OOB of its own.
        self._erased_oob_head = b"\xff" * max(self._meta_off, 0)
        self._seq = 0
        self._ppb = chip.geometry.pages_per_block
        self._page_size = chip.geometry.page_size

        usable_total = len(self._usable_offsets) * len(self.block_ids)
        #: LBAs the host may address (physical minus over-provisioning).
        self.logical_pages = int(usable_total * (1.0 - over_provisioning))
        if logical_pages is not None:
            # Exposing fewer LBAs than physically backed only increases
            # effective over-provisioning; exposing more is impossible.
            self.logical_pages = min(self.logical_pages, logical_pages)
        if self.logical_pages < 1:
            raise ValueError("configuration leaves no logical capacity")

    def attach(
        self,
        tracer: Tracer | NullTracer,
        ledger: WriteLedger,
        lifetimes: LifetimeTracker,
    ) -> None:
        """Observers onto this FTL and its chip."""
        self.tracer = tracer
        self.ledger = ledger
        self.lifetimes = lifetimes
        self.chip.attach(tracer, ledger)

    # ------------------------------------------------------------------ #
    # Host interface
    # ------------------------------------------------------------------ #

    @property
    def page_size(self) -> int:
        """Bytes per logical page (equals the physical page size)."""
        return self._page_size

    @property
    def free_blocks(self) -> int:
        """Erased blocks ready for allocation (excluding the active one)."""
        return len(self._free)

    def read_page(self, lba: int) -> bytes:
        """Read one logical page (raises KeyError if never written)."""
        # The mapping is read at call time: a remount replaces the dict.
        ppn = self.mapping.get(lba - self.lba_base)
        if ppn is None:
            raise KeyError(f"read of unwritten lba {lba}{self._where}")
        data = self.chip.read_page(ppn)
        self.stats.host_reads += 1
        self.stats.host_bytes_read += len(data)
        return data

    def write_page(self, lba: int, data: bytes) -> None:
        """Out-of-place write (always, for the conventional device)."""
        tr = self.tracer
        if not tr.enabled:
            self._write_page_inner(lba, data)
            return
        with tr.span("ftl_write", lba=lba, in_place=False):
            self._write_page_inner(lba, data)

    def _write_page_inner(
        self,
        lba: int,
        data: bytes,
        oob: bytes | None = None,
        checked: bool = False,
    ) -> bool:
        """Out-of-place write of ``lba``: allocate, program, remap.

        Invalidates the previous physical page (if any).  Returns True
        when the write landed in place (never, here).  ``checked`` skips
        :meth:`_check_write` for a caller that has just run it.

        Raises:
            KeyError / TypeError / ValueError: a write the device must
                refuse (see :meth:`_check_write`), before any state —
                page, sequence number, counter — is touched.
        """
        lba -= self.lba_base
        if not checked:
            self._check_write(lba, data, oob)
        ppn = self._allocate()
        if self._oob_meta_enabled:
            # The durable mapping record goes into the OOB tail.
            record = pack_oob_meta(lba, self._seq)
            self._seq += 1
            if oob is None:
                oob = self._erased_oob_head + record
            else:
                oob = bytes(oob[: self._meta_off]) + record
        self.chip.program_page(ppn, data, oob)
        lg = self.ledger
        if lg.enabled and self._oob_meta_enabled:
            # The 17-byte mapping record rode along in the same program;
            # attribute its bytes to metadata, not the host payload.
            lg.shift_bytes("oob_meta", OOB_META_SIZE)
        # Read the mapping only now: GC inside _allocate() may just have
        # migrated this very LBA, and the pre-allocation ppn would be stale.
        mapping = self.mapping
        valid = self._valid
        ppb = self._ppb
        appends_done = self.appends_done
        stats = self.stats
        old_ppn = mapping.get(lba)
        if old_ppn is not None:
            del self._rmap[old_ppn]
            valid[old_ppn // ppb] -= 1
            appends_done.pop(old_ppn, None)
            stats.page_invalidations += 1
        mapping[lba] = ppn
        self._rmap[ppn] = lba
        valid[ppn // ppb] += 1
        appends_done[ppn] = 0
        lt = self.lifetimes
        if lt.enabled:
            lt.on_write(self, lba, lg.current_cause)
        sz = self.sanitizer
        if sz.enabled:
            sz.check_mapping_pair(self, lba, ppn)
        # Counted once it has landed: a refused write is not a host write.
        stats.host_writes += 1
        stats.host_bytes_written += len(data)
        stats.out_of_place_writes += 1
        return False

    def write_delta(self, lba: int, offset: int, payload: bytes) -> bool:
        """Unsupported on a block-device interface: always False."""
        return False

    def trim(self, lba: int) -> None:
        """Invalidate a dead logical page (no rewrite).

        Raises:
            KeyError: ``lba`` outside the logical range (the error
                :meth:`_check_write` gives), before anything changes.
        """
        lba -= self.lba_base
        if not 0 <= lba < self.logical_pages:
            raise self._out_of_range(lba)
        ppn = self.mapping.pop(lba, None)
        if ppn is not None:
            del self._rmap[ppn]
            self._valid[ppn // self._ppb] -= 1
            self.appends_done.pop(ppn, None)
            self.stats.page_invalidations += 1
            self.stats.trims += 1
            lt = self.lifetimes
            if lt.enabled:
                lt.on_trim(self, lba)

    # ------------------------------------------------------------------ #
    # Remount (crash recovery)
    # ------------------------------------------------------------------ #

    def rebuild_from_media(self) -> None:
        """Remount: rebuild all volatile state from the chip's OOB metadata.

        Call on a freshly constructed FTL whose chip already holds data
        (a post-crash remount).  For every owned block, scans the usable
        pages' OOB tails and keeps the highest-sequence complete record
        per LBA; pages with torn or absent metadata are treated as never
        written, which reverts their LBA to its previous complete copy.
        Blocks containing any programmed page stay out of the free pool
        (their erased tail is unreachable until GC reclaims them —
        conservative, but correct after any crash).

        ``appends_done`` is reset to 0 for every mapped page; a NoFTL
        IPA region recounts them from the OOB slots afterwards.
        """
        if not self._oob_meta_enabled:
            raise RuntimeError(
                f"OOB of {self._oob_size} B cannot hold mapping metadata "
                f"({OOB_META_SIZE} B needed); remount is unsupported"
            )
        geometry = self.chip.geometry
        best: dict[int, tuple[int, int]] = {}  # lba -> (seq, ppn)
        occupied: set[int] = set()
        max_seq = -1
        meta_off = self._meta_off
        for block_id in self.block_ids:
            pages = self.chip.blocks[block_id].pages
            for page_offset in self._usable_offsets:
                page = pages[page_offset]
                if page.state is not PageState.PROGRAMMED:
                    continue
                occupied.add(block_id)
                meta = unpack_oob_meta(page.raw_oob()[meta_off:])
                if meta is None:
                    continue  # torn write or unstamped page: not addressable
                lba, seq = meta
                if not 0 <= lba < self.logical_pages:
                    continue
                max_seq = max(max_seq, seq)
                cur = best.get(lba)
                if cur is None or seq > cur[0]:
                    best[lba] = (seq, geometry.make_ppn(block_id, page_offset))
        self.mapping = {lba: ppn for lba, (_seq, ppn) in best.items()}
        self._rmap = {ppn: lba for lba, ppn in self.mapping.items()}
        self._valid = {b: 0 for b in self.block_ids}
        for ppn in self._rmap:
            self._valid[ppn // geometry.pages_per_block] += 1
        self.appends_done = {ppn: 0 for ppn in self._rmap}
        self._free = deque(b for b in self.block_ids if b not in occupied)
        self._active = None
        self._cursor = 0
        self._seq = max_seq + 1
        self._bg_victim = None
        self._bg_cursor = 0
        self._wear_victim = None
        sz = self.sanitizer
        if sz.enabled:
            sz.check_ftl(self)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _out_of_range(self, lba: int) -> KeyError:
        return KeyError(
            f"lba {lba} outside logical range [0, {self.logical_pages})"
        )

    def _check_write(
        self, lba: int, data: bytes, oob: bytes | None = None
    ) -> None:
        """Refuse a write no page can take, before anything is spent on it.

        ``lba`` is the FTL's own (``device lba - lba_base``).

        Raises:
            KeyError: ``lba`` outside the logical range.
            TypeError: ``data`` is not bytes-like.
            ValueError: ``data`` longer than a page (a shorter image is
                padded with erased bytes by the chip), or ``oob`` not
                exactly the chip's OOB size.
        """
        if not 0 <= lba < self.logical_pages:
            raise self._out_of_range(lba)
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise TypeError(
                f"page payload must be bytes-like, got {type(data).__name__}"
            )
        if len(data) > self._page_size:
            raise ValueError(
                f"payload of {len(data)} B exceeds page size {self._page_size}"
            )
        if oob is not None and len(oob) != self._oob_size:
            raise ValueError(
                f"oob must be exactly {self._oob_size} bytes, got {len(oob)}"
            )

    def _allocate(self) -> int:
        """Next erased ppn for a host write; may trigger GC first."""
        if self.background_gc:
            self._background_step()
            if len(self._free) <= self.gc_spare_blocks:
                # The budgeted collector fell behind the write rate:
                # finish the open victim and reclaim synchronously so
                # correctness never depends on the budget.
                self.stats.gc_emergency_syncs += 1
                self._finish_bg_victim()
                if len(self._free) <= self.gc_spare_blocks:
                    self._collect()
        elif len(self._free) <= self.gc_spare_blocks:
            self._collect()
        return self._allocate_no_gc()

    def _background_step(self) -> None:
        """Budgeted incremental reclamation, run before each allocation.

        While the free pool sits at or below the low watermark, migrates
        up to ``gc_migration_budget`` valid pages off the current victim
        (picking a new victim greedily when none is open) and erases the
        victim once it is fully migrated.  State persists across calls,
        so a victim's cost is spread over many foreground operations —
        and, on a multi-channel device, its erase pulse overlaps with
        foreground traffic on other channels.
        """
        budget = self.gc_migration_budget
        scan_end = len(self._usable_offsets)
        while budget > 0:
            if self._bg_victim is None:
                if len(self._free) > self.gc_low_watermark:
                    return
                victim = self._pick_victim()
                if victim is None:
                    return  # nothing reclaimable; emergency path decides
                self._bg_victim = victim
                self._bg_cursor = 0
            budget -= self._relocate(self._bg_victim, budget, background=True)
            if self._bg_cursor < scan_end:
                return  # budget exhausted mid-victim; resume next op
            self._finish_bg_victim()

    def _finish_bg_victim(self) -> None:
        """Drain and erase the open background victim (if any)."""
        victim = self._bg_victim
        if victim is None:
            return
        self._relocate(victim, background=True)
        self._bg_victim = None
        self._bg_cursor = 0
        tr = self.tracer
        if not tr.enabled:
            self._erase_victim(victim, None, background=True)
            return
        with tr.span("gc_erase", victim=victim, background=True) as span:
            self._erase_victim(victim, span, background=True)

    def _allocate_no_gc(self) -> int:
        """Next erased ppn in the active block (never recurses into GC).

        GC migrations allocate through the same active-block cursor as
        host writes; the spare pool guarantees destinations exist.
        """
        offsets = self._usable_offsets
        while True:
            active = self._active
            if active is None:
                if not self._free:
                    raise DeviceFullError("free-block pool exhausted")
                active = self._active = self._free.popleft()
                self._cursor = 0
            cursor = self._cursor
            if cursor < len(offsets):
                self._cursor = cursor + 1
                return active * self._ppb + offsets[cursor]
            self._active = None  # block exhausted; open another

    def _collect(self) -> None:
        """Greedy GC: reclaim blocks until the spare pool is restored.

        Each reclaim erases exactly one victim (+1 free block) and consumes
        ``valid(victim)`` pages of the shared active-block stream, so page-
        level progress per iteration is ``usable - valid(victim) > 0`` and
        the loop terminates unless every block is fully valid.
        """
        tr = self.tracer
        if not tr.enabled:
            self._collect_inner()
            return
        with tr.span("gc_collect", free_before=len(self._free)) as span:
            self._collect_inner()
            span.set(free_after=len(self._free))

    def _collect_inner(self) -> None:
        guard = 4 * len(self.block_ids)
        while len(self._free) <= self.gc_spare_blocks:
            victim = self._pick_victim()
            if victim is None:
                raise DeviceFullError("no reclaimable block (all pages valid)")
            self._reclaim(victim)
            guard -= 1
            if guard <= 0:
                raise DeviceFullError("GC made no net progress (pool too small)")

    def _pick_victim(self) -> int | None:
        active = self._active
        free = set(self._free)
        candidates = [
            b for b in self.block_ids if b != active and b not in free
        ]
        if not candidates:
            return None
        if self.wear_leveling_gap is not None:
            worn = self._wear_leveling_victim(candidates)
            if worn is not None:
                return worn
        valid = self._valid
        victim = min(candidates, key=valid.__getitem__)
        if valid[victim] >= len(self._usable_offsets):
            return None  # nothing reclaimable
        return victim

    def _wear_leveling_victim(self, candidates: list[int]) -> int | None:
        """Cold occupied block, when wear imbalance exceeds the gap.

        Reclaiming a cold block migrates its static data onto hot
        (much-erased) blocks and returns the young block to circulation —
        classic static wear leveling.
        """
        erase_of = lambda b: self.chip.blocks[b].erase_count  # noqa: E731
        hottest = max(erase_of(b) for b in self.block_ids)
        coldest = min(candidates, key=erase_of)
        if hottest - erase_of(coldest) > self.wear_leveling_gap:
            self.stats.wear_leveling_moves += 1
            self._wear_victim = coldest
            return coldest
        return None

    def _reclaim(self, victim: int) -> None:
        """Migrate the victim's valid pages, erase it, refill the pool.

        A victim whose erase exceeds the endurance limit is *retired*:
        its (already migrated) data is safe, and the block simply leaves
        the pool — the standard bad-block-management response.  Capacity
        shrinks by one block; sustained retirement eventually surfaces as
        :class:`DeviceFullError`, which is the physical truth.
        """
        tr = self.tracer
        if not tr.enabled:
            self._reclaim_inner(victim, None)
            return
        with tr.span("gc_erase", victim=victim) as span:
            self._reclaim_inner(victim, span)

    def _reclaim_inner(self, victim: int, span: Span | None) -> None:
        migrated = self._relocate(victim)
        if span is not None:
            span.set(migrated=migrated)
        self._erase_victim(victim, span)

    def _gc_cause(self, victim: int) -> str:
        """Attribution cause of reclaiming ``victim``."""
        return (
            "wear_leveling" if victim == self._wear_victim else "gc_migration"
        )

    def _relocate(
        self, victim: int, limit: int | None = None, background: bool = False
    ) -> int:
        """Move valid pages off ``victim`` in one chip call; returns how many.

        Shared by the synchronous reclaim (the whole victim) and the
        incremental background collector (``background``: the scan
        resumes at ``_bg_cursor``, stops after ``limit`` copies and leaves
        the cursor where it stopped — *on* a page whose move failed, so
        the victim is never erased with that page still mapped).  Each
        valid page becomes one ``(source, destination)`` move — read with
        OOB, program to the next page of the active-block stream — so the
        copied OOB carries the original mapping record (same LBA, same
        sequence number): a crash between copy and erase leaves two
        byte-identical candidates, and either one is a correct remount
        choice.

        The maps are updated after the moves, in order.  If the run fails
        part-way the moves it completed are booked, the destinations it
        never programmed go back to the allocation stream, and the error
        propagates: the FTL is where a page-at-a-time loop would have
        stopped.
        """
        offsets = self._usable_offsets
        scan_end = len(offsets)
        room = scan_end if limit is None else limit
        index = self._bg_cursor if background else 0
        base = victim * self._ppb
        rmap = self._rmap
        stream = (self._active, self._cursor, tuple(self._free))
        # (source, destination) of every move, in order.
        moves: list[tuple[int, int]] = []
        unplaced: int | None = None
        full: DeviceFullError | None = None
        while room and index < scan_end:
            src = base + offsets[index]
            if src not in rmap:
                index += 1
                continue
            try:
                dst = self._allocate_no_gc()
            except DeviceFullError as exc:
                # A page-at-a-time move senses the page before it asks
                # for a destination, so that sense still happens, after
                # the pages that did get one.  The scan stays on this page.
                unplaced = src
                full = exc
                break
            index += 1
            moves.append((src, dst))
            room -= 1
        if background:
            self._bg_cursor = index
        if moves or unplaced is not None:
            lg = self.ledger
            if not lg.enabled:
                self._run_moves(victim, moves, unplaced, stream, background)
            else:
                with lg.cause(self._gc_cause(victim)):
                    self._run_moves(victim, moves, unplaced, stream, background)
        if full is not None:
            raise full
        return len(moves)

    def _run_moves(
        self,
        victim: int,
        moves: list[tuple[int, int]],
        unplaced: int | None,
        stream: tuple[int | None, int, tuple[int, ...]],
        background: bool,
    ) -> None:
        """Execute one relocation run, sense ``unplaced`` (the page left
        without a destination, if any) and book what completed."""
        chip = self.chip
        moved = False
        try:
            chip.execute_batch(moves)
            moved = True
            if unplaced is not None:
                chip.read_page(unplaced)
        except Exception as exc:
            done: int = (
                len(moves) if moved
                else exc.batch_ops_completed  # type: ignore[attr-defined]
            )
            self._book_moves(victim, moves[:done], background)
            if background and done < len(moves):
                # The scan stays on the page whose move failed: it is
                # still mapped, so the victim may not be erased yet.
                self._bg_cursor = self._usable_offsets.index(
                    moves[done][0] - victim * self._ppb
                )
            # Rewind the allocation stream to where it was on entry and
            # take again what was spent: the completed moves' destinations
            # and the failing move's — unless a sense failed (a move's
            # or the unplaced page's), which had not asked for one yet.
            self._active, self._cursor, free = stream
            self._free = deque(free)
            spent = done if isinstance(exc, EccUncorrectableError) else done + 1
            for _ in range(spent):
                self._allocate_no_gc()
            raise
        self._book_moves(victim, moves, background)

    def _book_moves(
        self, victim: int, moves: list[tuple[int, int]], background: bool
    ) -> None:
        """Apply completed moves to the maps and counters, in order."""
        mapping = self.mapping
        rmap = self._rmap
        valid = self._valid
        appends_done = self.appends_done
        ppb = self._ppb
        for src, dst in moves:
            appends_done[dst] = appends_done.pop(src, 0)
            lba = rmap[src]
            del rmap[src]
            mapping[lba] = dst
            rmap[dst] = lba
            valid[dst // ppb] += 1
        valid[victim] -= len(moves)
        self.stats.gc_page_migrations += len(moves)
        if background:
            self.stats.background_gc_migrations += len(moves)
        lg = self.ledger
        if lg.enabled and self._oob_meta_enabled:
            page_at = self.chip.page_at
            meta_off = self._meta_off
            for _src, dst in moves:
                if has_oob_meta(page_at(dst).raw_oob()[meta_off:]):
                    # The copied page carried its durable mapping record
                    # along.
                    lg.shift_bytes("oob_meta", OOB_META_SIZE)
        sz = self.sanitizer
        if sz.enabled:
            for _src, dst in moves:
                sz.check_mapping_pair(self, rmap[dst], dst)

    def _erase_victim(
        self, victim: int, span: Span | None, background: bool = False
    ) -> None:
        """Erase a fully-migrated victim and return it to the free pool."""
        lg = self.ledger
        if not lg.enabled:
            self._erase_victim_inner(victim, span, background)
        else:
            # GC's own erases must not land in the ambient host cause.
            with lg.cause(self._gc_cause(victim)):
                self._erase_victim_inner(victim, span, background)
        if victim == self._wear_victim:
            self._wear_victim = None

    def _erase_victim_inner(
        self, victim: int, span: Span | None, background: bool = False
    ) -> None:
        try:
            self.chip.erase_block(victim)
        except BadBlockError:
            if span is not None:
                span.set(retired=True)
            self._retire(victim)
            return
        self.stats.gc_erases += 1
        if background:
            self.stats.background_gc_erases += 1
        self._free.append(victim)
        sz = self.sanitizer
        if sz.enabled:
            sz.check_ftl(self)

    def _retire(self, block_id: int) -> None:
        """Remove a worn-out block from circulation."""
        self.block_ids.remove(block_id)
        self._valid.pop(block_id, None)
        self.stats.retired_blocks += 1
