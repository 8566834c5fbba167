"""Exact host-cost gate: Python calls per op, per layer.

Wall-clock on a shared box drifts by 2x within a minute; the number of
interpreter call events an op costs does not.  This test runs the
end-to-end benchmark's contract command in traced mode (its counted
passes put ``sys.setprofile`` over the first 5 000 ops — on the service
workload, over one whole short run — and charge every Python and C call
to the layer of the innermost ``repro`` frame) and
gates three things:

* ``engine + storage + core`` ``pycalls_per_op`` — the DBMS-side page
  path (record codecs, slotted-page accessors, change tracking, page
  reconstruction) — may not exceed the committed value by more than
  5 %.  A per-byte loop, a property chain or a generator-based context
  manager creeping back onto that path costs far more than that.
* ``ftl`` and ``flash`` ``pycalls_per_op`` must equal the committed
  values: work on the engine side must leave the device side alone,
  and a change below the FTL boundary has to re-record them on purpose.
  ``ftl_overwrite_trad`` — the device stream straight into the FTL, no
  engine above it — is gated on these two alone: it is where a
  device-side change shows undiluted.  Its counted prefix (the first
  5 000 ops) ends some 2 000 ops before the first reclaim, so it gates
  the host read and write paths; garbage collection is gated by
  ``tests/ftl/test_gc_batching.py`` (tier-1), which counts what reaches
  the chip at the same geometry and fill.
* ``workloads`` ``pycalls_per_op`` on the three workloads that have a
  generator, and ``service`` on ``svc_ycsb_a_2shard``, must equal the
  committed values too: a generator's draws are a fixed number of
  kernel calls per transaction, and a numpy dispatch creeping back
  into one (or a draw added or dropped) moves the count.  The meter
  sees Python frames and builtin C calls, not numpy's Cython methods,
  so the count *rose* when the draw kernel replaced three invisible
  ``rng.integers`` calls per TPC-B transaction with visible kernel
  methods (3.00 -> 9.01) while the time fell; it is a tripwire for
  change, not a cost.

The committed values were recorded with CPython 3.11 and numpy 2.4
(call events are a property of the interpreter: 3.12 inlines
comprehensions, and numpy's Python-level wrappers are charged to the
layer that called them), which is why CI's ``perf-smoke`` job pins 3.11
and why other interpreters skip.  Re-record after an intentional
change with the command in ``_traced_run``; not part of tier-1
(``testpaths`` is ``tests``), 20-70 s per workload::

    PYTHONPATH=src python -m pytest benchmarks/test_e2e_call_budget.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: The layers of the engine-side page path, gated as one sum.
HOT_LAYERS = ("engine", "storage", "core")
#: Allowed growth of the hot-path sum over its committed value.
HEADROOM = 1.05

#: ``pycalls_per_op`` at ``--seed 42 --seconds 1``.  ``hot_path`` is the
#: sum over HOT_LAYERS (161.76 and 745.16 before the page codecs were
#: compiled, 71.50 and 373.68 before the update bracket closed in one
#: method); every other entry is exact (``flash`` was 15.3018, 79.6776
#: and 21.4246 with numpy on the 8-byte OOB check and one
#: ``Generator.binomial`` call per program; ``workloads`` was 2.6504,
#: 3.0 and 17.1596 while every draw was a numpy call).  ``ftl`` and
#: ``flash`` were re-recorded on purpose when GC relocation became one
#: ``execute_batch`` per victim and the host-write path was right-sized
#: (in the order below: ``ftl`` from 10.3492, 26.0637, 14.4706, 3.103;
#: ``flash`` from 15.1432, 56.9158, 21.2964, 14.805), and again when the
#: flash chip became one kernel — one body per op kind sharing one
#: post-pulse tail, the batch loop a dispatch over it, the OOB mapping
#: record stamped inline (``ftl`` from 10.3092, 25.6790, 13.7740,
#: 3.0744; ``flash`` from 14.7648, 54.6790, 19.9032, 14.3004).  On
#: ``ftl_overwrite_trad`` that is the write path only — its counted
#: prefix performs no reclaim; ``tests/ftl/test_gc_batching.py`` is the
#: gate on what GC costs the chip.  ``svc_ycsb_a_2shard``'s ``flash`` went
#: 8.092 -> 9.1488 and its ``service`` 19.3382 -> 18.5166 when the stack
#: protocol made the WAL's flush barrier unconditional and moved the
#: media digest into ``repro.flash``: +0.2356 is the no-op ``sync()``
#: call per log append (1 178 over the 5 000 counted ops), and 0.8212 of
#: digest hashing (two ``update`` calls per page, computed once at the
#: end of the run) is now charged to ``flash`` instead of ``service``.
#: When every counter became a plain field (``stats.extra`` and the
#: registry-built counters deleted), the per-op device path kept its
#: exact count (``ftl_overwrite_trad``'s ``ftl`` did not move).
#: ``service`` went 18.5166 -> 18.267: ``Shard.execute_batch`` no longer
#: makes its two no-op counter calls per batch (the service layer was
#: charged their ``len(requests)`` argument, one call per batch; the
#: ``inc`` calls ran in ``repro.obs``).  ``ftl`` and ``flash`` moved by a
#: per-run constant, the benchmark probe's one end-of-prefix
#: ``stats.diff`` inside the counted window: it now covers eight more
#: fields and no extra dict, and on the NoFTL stacks sums the regions in
#: ``DeviceStats.total`` (charged to ``flash``) instead of a loop in
#: ``repro.ftl.noftl`` (``ftl`` from 10.2564, 25.361642557162856,
#: 3.0048; ``flash`` from 8.6098, 32.06299580027998, 8.4126, 9.1488).
#: ``hot_path`` of ``ycsb_b_cold`` went 64.4946 -> 46.6328 and of
#: ``svc_ycsb_a_2shard`` 63.9792 -> 55.7564 when ``Schema.decode`` began
#: returning a lazy ``Row``: a CHAR column is stripped and decoded (two
#: C calls) only when read, and a YCSB read reads none of its ten.  Left
#: at the old values, those drops would have hidden a later regression
#: of up to 18 calls inside the 5 % headroom.  ``tpcb_evict_ipa`` stays
#: at 318.478: it measures 320.48 (the ASCII check a CHAR column's encode
#: now makes costs two calls per history insert), inside the headroom.
#: ``svc_ycsb_a_2shard``'s ``service`` went 18.267 -> 18.017 when a batch
#: became ``with manager.wal_group():`` and the scheduler's clock
#: crossing was inlined (``end_us = t_us + duration_us``): per batch the
#: service layer makes one call fewer (the helper call).  Its
#: ``hot_path`` stays at 55.7564: it measures 56.5064, because
#: ``storage`` makes three calls more per batch (the ``_WalGroup``
#: construction and ``__exit__`` calling ``end_wal_group``), inside the
#: headroom.
#: When the page began writing its own header/footer fields as stamps
#: (``ChangeTracker.on_stamp``), net changed body bytes moved into a
#: per-residency byte map and ``StorageManager.end_update`` closed the
#: bracket in one frame, ``hot_path`` was lowered to the new measured
#: values (from 318.478, 46.6328 and 55.7564; they measured 320.478,
#: 46.6328 and 56.5064 at the parent).  ``flash`` was re-recorded for one
#: cause: the update bracket's host-cost charge no longer calls
#: ``SimClock.advance`` (a ``repro.flash`` frame plus its ``dict.get``,
#: now charged to ``storage``), two calls per update operation — from
#: 8.6274, 32.08352776481568 and 9.184 (tpcb: 4 update ops per
#: transaction, -8.03; ycsb_b_cold: 5 % updates, -0.108; the service:
#: half its ops update, -1.026).
#: When the buffer pool became LRU only (the CLOCK reference bits
#: deleted), ``hot_path`` was lowered to the new measured values (from
#: 46.2576, 295.721651889874 and 54.758): ``storage`` no longer calls
#: ``_referenced.pop`` once per eviction.
#: When a buffer miss began to run in one pass (NoFTL routes an LBA with
#: two comparisons and reads the block manager's mapping dict directly;
#: ``StorageManager.fetch`` reconstructs, verifies and pins in its own
#: frame; ``BufferPool.insert`` scans for its victim once and evicts it
#: in its own frame; the page checksum is one CRC over a slice copy),
#: ``hot_path`` of ``ycsb_b_cold`` and ``tpcb_evict_ipa`` was lowered to
#: the new measured values (from 45.3676 and 294.7708819412039) and
#: ``ftl`` re-recorded (from 10.2466, 25.350209986000934 and 2.9852): a
#: NoFTL read, write, delta or trim no longer crosses
#: ``Region.contains``, ``lba_end``, ``logical_pages``, ``_local`` and
#: ``ppn_of``.  ``svc_ycsb_a_2shard`` stays at 54.632: it measures
#: 55.3164 (56.8548 at the parent), inside the headroom.  ``flash``,
#: ``workloads``, ``service`` and both ``ftl_overwrite_trad`` entries
#: did not move.
#: When a single-field update became one pass (``HeapFile.update`` ->
#: ``StorageManager.update_field`` -> ``SlottedPage.update_stamped`` ->
#: ``ChangeTracker.write_op``, which diffs the write once, stamps the LSN
#: and builds the WAL runs), the ``hot_path`` entries were lowered to the
#: new measured values, from 36.2564, 281.52449836677556 and 54.632
#: (``svc_ycsb_a_2shard`` measured 55.3164 at the parent), with every
#: other entry unchanged.
#: When the op-batch encoding went (``execute_batch`` takes ``(src, dst)``
#: pairs; GC builds the pair list and tests a source's mapping with
#: ``in`` instead of ``dict.get``), ``ftl`` and ``flash`` were re-recorded
#: on the three workloads whose counted prefix relocates pages, from
#: 5.5854 / 8.519, 16.1598226784881 / 24.056462902473168 and
#: 2.0768 / 8.1576: per relocation the ``OpBatch`` object, its
#: ``copy`` frames, ``len(batch)`` and the row decoding are gone.
#: ``hot_path``, ``workloads``, ``service`` and both
#: ``ftl_overwrite_trad`` entries (0 reclaims in its prefix) did not move.
#: When the block manager was folded into ``PageMappingFtl`` (one class
#: owns the mapping, GC and host counters), ``ftl_overwrite_trad``'s
#: ``ftl`` went 13.0774 -> 12.0774: a host read no longer crosses a
#: ``ppn_of`` frame and a host write no longer a separate out-of-place
#: write frame, one call per op either way.  The three other workloads'
#: ``ftl`` entries did not move (a NoFTL region read the mapping dict
#: directly before, and its write keeps one frame below
#: ``_write_page_inner``); ``hot_path``, ``workloads``, ``service`` and
#: ``flash`` did not move either.
#: When a heap insert became one pass (``HeapFile.insert`` ->
#: ``StorageManager.insert_record`` -> ``SlottedPage.insert_stamped`` ->
#: ``ChangeTracker.insert_op``) and ``Transaction.commit`` began charging
#: its host cost inline, ``flash`` lost the ``SimClock.advance`` frame and
#: its ``dict.get`` on the three DB workloads, two calls per transaction
#: (from 8.4954, 23.95520298646757 and 8.1476), and ``hot_path`` was
#: lowered to the new measured values (from 35.8228, 254.25898273448436
#: and 47.4976): ``engine`` makes one call less per transaction (the
#: ``by_type`` count's ``dict.get``), and on ``tpcb_evict_ipa`` the
#: history insert makes 5.97 ``storage`` and 6.00 ``core`` calls fewer;
#: ``svc_ycsb_a_2shard``'s ``core`` rose 7.0564 -> 7.7244 (a logged
#: field's diff with a zero byte is cut by splitting it at its zeros, a
#: few builtin calls more than one regex scan, in less time).
#: ``workloads``, ``service``, ``ftl`` and both ``ftl_overwrite_trad``
#: entries did not move.
#: When ``DrawStream.letters`` stopped walking a value that straddles a
#: block refill letter by letter (it takes the block's tail from the
#: letter table, refills, and slices the rest from the next block's), the
#: ``workloads`` entries of the two YCSB workloads were re-recorded, from
#: 6.2022 and 10.8656: the walk's ``integers`` calls are gone.  Every
#: other entry measured unchanged, ``tpcb_evict_ipa``'s ``workloads``
#: included; ``ftl`` and ``flash`` did not move when every stats block
#: became a ``Counters`` (the probe's ``stats.diff`` makes the same calls
#: on a class of number fields).
COMMITTED = {
    "ycsb_b_cold": {
        "hot_path": 34.8228,
        "workloads": 6.2,
        "ftl": 5.5656,
        "flash": 6.4954,
    },
    "tpcb_evict_ipa": {
        "hot_path": 237.28604759682688,
        "workloads": 9.005832944470368,
        "ftl": 15.882641157256183,
        "flash": 21.95520298646757,
    },
    "ftl_overwrite_trad": {
        "ftl": 12.0774,
        "flash": 8.414,
    },
    "svc_ycsb_a_2shard": {
        "hot_path": 47.1656,
        "workloads": 10.8614,
        "service": 18.017,
        "ftl": 2.0508,
        "flash": 6.1476,
    },
}

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="call-event counts were recorded with CPython 3.11",
)


def _traced_run(workload: str) -> dict:
    """``{metric: value}`` of one traced run of the contract command."""
    done = subprocess.run(
        [
            sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
            "--seed", "42", "--seconds", "1", "--trace", "1",
        ],
        cwd=ROOT, check=True, timeout=600, capture_output=True, text=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: entry["value"] for name, entry in result["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(COMMITTED))
def test_python_calls_per_op(workload: str) -> None:
    """Every layer is judged before the test fails, so one failure lists
    every mismatch with its measured value (one traced run re-records
    them all)."""
    committed = COMMITTED[workload]
    metrics = _traced_run(workload)
    mismatches = []
    hot_path = sum(metrics[f"{layer}.pycalls_per_op"] for layer in HOT_LAYERS)
    limit = committed.get("hot_path", 0.0)
    if hot_path > limit * HEADROOM:
        mismatches.append(
            f"engine+storage+core cost {hot_path:.2f} Python calls per op, "
            f"committed {limit:.2f} (+5 % allowed): "
            + ", ".join(
                f"{layer} {metrics[f'{layer}.pycalls_per_op']:.2f}"
                for layer in HOT_LAYERS
            )
        )
    for layer, value in committed.items():
        if layer == "hot_path":
            continue
        measured = metrics[f"{layer}.pycalls_per_op"]
        if measured != value:
            mismatches.append(
                f"{layer}.pycalls_per_op moved from {value} to {measured}"
            )
    assert not mismatches, (
        f"{workload}: " + "; ".join(mismatches)
        + "; if the change touches a layer on purpose, re-record COMMITTED"
    )
