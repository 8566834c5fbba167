"""Spec model of ``PageMappingFtl``'s relocation: one page at a time."""

from repro.ftl.oob_meta import OOB_META_SIZE, has_oob_meta


def ref_relocate(manager, victim, limit=None, background=False):
    """Move ``victim``'s valid pages (at most ``limit``) off it; returns
    how many.  Each page is read with its OOB, given the next page of the
    allocation stream, programmed there and re-mapped, inside the
    victim's ledger cause.  In the ``background`` the scan resumes at
    ``_bg_cursor`` and leaves it on the next page to look at — the page
    that failed, if one did."""
    chip = manager.chip
    offsets = manager._usable_offsets
    index = manager._bg_cursor if background else 0
    moved = 0
    while index < len(offsets) and (limit is None or moved < limit):
        src = victim * manager._ppb + offsets[index]
        lba = manager._rmap.get(src)
        if lba is not None:
            with manager.ledger.cause(manager._gc_cause(victim)):
                try:
                    data, oob = chip.read_page_with_oob(src)
                    dst = manager._allocate_no_gc()
                    chip.program_page(dst, data, oob)
                except Exception:
                    if background:
                        manager._bg_cursor = index
                    raise
                if manager._oob_meta_enabled and has_oob_meta(
                    oob[manager._meta_off :]
                ):
                    manager.ledger.shift_bytes("oob_meta", OOB_META_SIZE)
                manager.appends_done[dst] = manager.appends_done.pop(src, 0)
                del manager._rmap[src]
                manager._valid[victim] -= 1
                manager.mapping[lba] = dst
                manager._rmap[dst] = lba
                manager._valid[dst // manager._ppb] += 1
                manager.stats.gc_page_migrations += 1
                if background:
                    manager.stats.background_gc_migrations += 1
                if manager.sanitizer.enabled:
                    manager.sanitizer.check_mapping_pair(manager, lba, dst)
            moved += 1
        index += 1
    if background:
        manager._bg_cursor = index
    return moved
