"""Incremental background GC: correctness, budgets, and the fallbacks.

The collector moves out of the eviction hot path: each allocation pays
at most ``gc_migration_budget`` page migrations toward the current
victim, an erase only fires once a victim is fully drained, and the old
synchronous collector remains as the emergency path when the free list
hits the spare floor anyway.  Mapping correctness must be untouched —
the property suite's shadow-dict discipline is repeated here with the
background collector on, single- and multi-channel.
"""

from repro.flash.chip import FlashChip
from repro.flash.device import FlashDevice
from repro.flash.geometry import FlashGeometry
from repro.ftl.page_mapping import PageMappingFtl

GEO = FlashGeometry(page_size=128, oob_size=32, pages_per_block=4, blocks=20)


def make_ftl(device=None, gc_migration_budget=None):
    device = device or FlashChip(GEO)
    ftl = PageMappingFtl(device, over_provisioning=0.25, background_gc=True)
    if gc_migration_budget is not None:
        ftl.gc_migration_budget = gc_migration_budget
    return ftl


def churn(ftl, writes=800, lbas=None, seed_stride=7):
    """Overwrite a small LBA window hard enough to force collection."""
    lbas = lbas if lbas is not None else ftl.logical_pages // 2
    shadow = {}
    for i in range(writes):
        lba = (i * seed_stride) % lbas
        payload = bytes([i % 256]) * 16
        ftl.write_page(lba, payload)
        shadow[lba] = payload
    return shadow


class TestBackgroundCollector:
    def test_mapping_correct_under_churn(self):
        ftl = make_ftl()
        shadow = churn(ftl)
        for lba, payload in shadow.items():
            assert ftl.read_page(lba)[:16] == payload

    def test_background_counters_populate(self):
        ftl = make_ftl()
        # Full-span churn: victims then hold valid pages, so collection
        # must migrate (a narrow hot set yields all-invalid victims and
        # erase-only GC — no migrations to count).
        churn(ftl, lbas=ftl.logical_pages)
        assert ftl.stats.background_gc_migrations > 0
        assert ftl.stats.background_gc_erases > 0

    def test_budget_bounds_migrations_per_allocation(self):
        budget = 2
        ftl = make_ftl(gc_migration_budget=budget)
        stats = ftl.stats
        last, last_emergency = 0, 0
        span = ftl.logical_pages
        bounded_steps = 0
        for i in range(900):
            ftl.write_page((i * 7) % span, bytes([i % 256]) * 16)
            now = stats.background_gc_migrations
            now_emergency = stats.gc_emergency_syncs
            if now_emergency == last_emergency:
                # Budget only caps the incremental path; an emergency
                # sync legitimately drains the victim past it.
                assert now - last <= budget
                bounded_steps += 1
            last, last_emergency = now, now_emergency
        assert bounded_steps > 100 and last > 0  # not vacuously true

    def test_emergency_sync_fallback_still_collects(self):
        # A budget of 1 cannot keep up with a pool this tight: the free
        # list will touch the spare floor and the synchronous collector
        # must finish the job rather than dying of exhaustion.
        ftl = make_ftl(gc_migration_budget=1)
        shadow = churn(ftl, writes=1200, lbas=ftl.logical_pages)
        assert ftl.stats.gc_emergency_syncs > 0
        for lba, payload in shadow.items():
            assert ftl.read_page(lba)[:16] == payload

    def test_multichannel_device_under_churn(self):
        ftl = make_ftl(device=FlashDevice(GEO, channels=4))
        shadow = churn(ftl)
        for lba, payload in shadow.items():
            assert ftl.read_page(lba)[:16] == payload
        assert ftl.stats.background_gc_erases > 0

    def test_rebuild_resets_partial_victim(self):
        ftl = make_ftl()
        churn(ftl, writes=400)
        ftl.rebuild_from_media()
        assert ftl._bg_victim is None
        assert ftl._bg_cursor == 0
