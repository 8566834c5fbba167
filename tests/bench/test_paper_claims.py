"""The paper's claims, asserted on one fast run of every report section.

``repro.bench.run_all`` runs each experiment once (module fixture, all
cores); every section's plain results are checked here against the
shape the paper reports.  Claims are keyed by the section's experiment
id (the first word of its heading), and a failing claim names its
section.
"""

from dataclasses import replace
from pathlib import Path

import pytest

import repro.bench.run_all as run_all
from repro.bench.fig1 import UPDATE_BYTES
from repro.bench.report import relative_pct
from repro.bench.tables import longevity
from repro.core.config import DELTA_METADATA_SIZE

#: ``python -m repro.bench.run_all --fast``, recorded before the tables
#: became data: every section's text, byte for byte.
GOLDEN = Path(__file__).parent / "golden" / "experiments_fast.md"

#: Experiment id -> check of that section's results.
CLAIMS = {}


def claim(experiment):
    def register(check):
        CLAIMS[experiment] = check
        return check

    return register


def experiment_id(section):
    return section.title.split()[0]


def delta(row, metric):
    """``metric``'s percent change from a paired row's baseline."""
    return relative_pct(*row.pair(metric))


def check(section):
    """Run the section's claims; an assertion failure names the section."""
    try:
        CLAIMS[experiment_id(section)](section.results)
    except AssertionError as exc:
        raise AssertionError(f"{section.title}: {exc}") from exc


@claim("E1")
def table1_tpcb(rows):
    """Paper (2 h on OpenSSD): TPS 260 -> 380 (+46 %) pSLC, 313 (+20 %)
    odd-MLC; GC migrations per host write -83 % / -55 %, erases per host
    write -69 % / -59 %; host reads/writes INCREASE (fixed-duration runs
    do more work)."""
    results = {row.label: row.result for row in rows}
    base = results["[0x0]"]
    pslc = results["[2x4] pSLC"]
    odd = results["[2x4] odd-MLC"]

    # Throughput ordering: pSLC > odd-MLC > traditional.
    assert pslc.tps > odd.tps > base.tps
    # Substantial gains (paper: +46 % / +20 %; shape: at least +10 %).
    assert pslc.tps > base.tps * 1.10
    assert odd.tps > base.tps * 1.05

    # Fixed-duration runs: faster configs do MORE host I/O (paper rows 1-2).
    assert pslc.device.host_reads > base.device.host_reads
    assert pslc.device.total_host_write_ops > base.device.total_host_write_ops

    # GC overhead per host write drops sharply (paper rows 5-6).
    base_migrations = base.device.migrations_per_host_write
    assert pslc.device.migrations_per_host_write < base_migrations * 0.6
    assert odd.device.migrations_per_host_write < base_migrations * 0.8
    assert (
        odd.device.erases_per_host_write
        < base.device.erases_per_host_write * 0.7
    )

    # IPA actually happened: delta writes on the native interface.
    assert pslc.device.host_delta_writes > 0
    assert odd.device.host_delta_writes > 0
    # odd-MLC can only append on LSB-resident pages: fewer deltas than pSLC.
    assert odd.device.host_delta_writes < pslc.device.host_delta_writes


@claim("E2")
def fig1_write_amp(rows):
    traditional, ipa = rows
    # Traditional: whole 8 KB page for a 10-byte update, 1+ invalidation.
    assert traditional.bytes_transferred == 8192
    assert traditional.pages_invalidated >= 1
    assert traditional.write_amplification > 500  # paper: ~80x at 100 B net

    # IPA: a delta-record of ~100 bytes, no invalidation.
    assert ipa.bytes_transferred < 128
    assert ipa.bytes_transferred >= UPDATE_BYTES
    assert ipa.pages_invalidated == 0
    assert ipa.write_amplification < 15

    # The headline ratio of Figure 1.
    assert traditional.bytes_transferred / ipa.bytes_transferred > 50


@claim("E3")
def fig2_ispp(demo):
    # The staircase exists and is monotone (Figure 2, right).
    assert demo.slc_pulses_to_program > 1
    assert demo.staircase == sorted(demo.staircase)

    # MLC needs finer steps => more pulses => slower (MSB latency premium).
    assert demo.mlc_pulses_to_program > 2 * demo.slc_pulses_to_program
    assert demo.mlc_program_us > demo.slc_program_us

    # The two facts that enable IPA:
    assert demo.append_pulses > 0  # charge increase: no erase needed
    assert demo.identical_reprogram_pulses == 0  # unchanged data is free
    assert demo.decrease_rejected  # erase-before-overwrite enforced


@claim("E4")
def fig3_layout(rows):
    by_scheme = {r.scheme: r for r in rows}

    # The paper's formula for the Table-1 scheme: 2 x (1 + 12 + 32) = 90.
    assert by_scheme["[2x4]"].delta_area == 2 * (1 + 12 + DELTA_METADATA_SIZE)
    assert by_scheme["[2x4]"].record_size == 45

    # Overhead stays marginal at sane schemes (paper: delta area is small).
    assert by_scheme["[2x4]"].page_overhead_pct < 2.0

    # Monotonicity: larger N x M -> larger area, less body.
    areas = [r.delta_area for r in rows]
    bodies = [r.usable_body for r in rows]
    assert areas == sorted(areas)
    assert bodies == sorted(bodies, reverse=True)

    # Every configuration's ECC slots fit the Jasmine 128-byte OOB.
    assert all(r.oob_fits for r in rows)


@claim("E5")
def claims_headline(rows):
    """Paper: "67 % less page invalidations ... 80 % lower garbage
    collection overhead ... 45 % increase in transactional throughput,
    while doubling Flash longevity" under update-intensive workloads;
    TPC-B is the update-intensive anchor, the other mixes show smaller
    but same-direction effects."""
    by_workload = {r.label: r for r in rows}

    # TPC-B (the paper's anchor): all four claims hold with margin.
    tpcb = by_workload["tpcb"]
    assert delta(tpcb, "device.page_invalidations") < -50  # paper: -67 %
    assert delta(tpcb, "device.gc_overhead") < -60  # paper: -80 %
    assert delta(tpcb, "tps") > +30  # paper: +45 %
    assert longevity(tpcb) > 2.0  # paper: ~2x

    # Every workload moves in the right direction.  Longevity is allowed
    # a small dip on mixes where pSLC's halved erase-block capacity eats
    # the erase-count saving (insert-heavy TPC-C at demo scale).
    for row in rows:
        assert delta(row, "device.page_invalidations") < 0
        assert delta(row, "tps") > 0
        assert longevity(row) >= 0.8


@claim("E6")
def ipa_vs_ipl(rows):
    """Paper: IPA does 23-62 % fewer writes and 29-74 % fewer erases than
    IPL, and IPL roughly doubles the read load."""
    for row in rows:
        # IPA writes less than IPL on every workload (paper: -23..-62 %).
        assert delta(row, "flash.program_ops") < -10, row.label
        # IPL pays a structural read overhead (paper: ~2x).
        ipa_reads, ipl_reads = row.pair("device.host_reads")
        assert relative_pct(ipl_reads, ipa_reads) > 50, row.label
        # With 70-90 % reads, the read overhead costs IPL its throughput.
        assert row.result.tps > row.baseline.tps, row.label

    # Update-heavy workloads also show the erase gap (paper: -29..-74 %).
    tpcb = next(r for r in rows if r.label == "tpcb")
    assert delta(tpcb, "flash.block_erases") < -20


@claim("E7")
def update_sizes(rows):
    """Paper: ">70 % of evicted dirty 8KB-pages [modify] less than 100
    bytes"; DBMS write-amplification "of about 80x"."""
    by_workload = {r.workload: r for r in rows}

    # The balance-update mixes show the paper's >70 % small-update share.
    for name in ("tpcb", "tatp"):
        row = by_workload[name]
        assert row.report.fraction_under_100b > 0.70, name
        assert row.report.meets_paper_claim(), name

    # TPC-B's DBMS write-amplification is in the paper's ~80x ballpark.
    assert 30 < by_workload["tpcb"].dbms_wa < 400

    # Median eviction modifies a handful of bytes on the update mixes.
    assert by_workload["tpcb"].report.median_bytes < 100


@claim("E8")
def mlc_modes(rows):
    by_mode = {r.mode: r for r in rows}

    # SLC and pSLC: interference negligible (wide voltage windows).
    assert by_mode["slc"].survived
    assert by_mode["pslc"].survived
    assert by_mode["slc"].uncorrectable_reads == 0

    # odd-MLC: full capacity, appends confined to LSB pages; ECC absorbs
    # the modest disturb.
    odd = by_mode["odd-mlc"]
    assert odd.survived
    assert odd.capacity_factor == 1.0
    assert odd.appendable_fraction == 0.5

    # Full MLC: the append storm breaks neighbours past ECC capability —
    # the paper's reason pSLC/odd-MLC exist.
    assert not by_mode["mlc"].survived
    assert by_mode["mlc"].uncorrectable_reads > 0

    # pSLC's price is capacity.
    assert by_mode["pslc"].capacity_factor == 0.5


@claim("A1")
def ablation_nxm(rows):
    by_label = {r.label: r for r in rows}

    # More records per page (N) admits more in-place evictions.
    def share(label):
        return by_label[label].result.storage.ipa_share

    assert share("[2x4]") > share("[1x4]")
    assert share("[4x4]") >= share("[2x4]")

    # Every enabled scheme keeps a sane write path (no catastrophic GC).
    for row in rows:
        assert row.result.transactions > 0
        assert row.result.storage.ipa_share > 0.10

    # Larger areas invalidate fewer pages per committed transaction.
    small = by_label["[1x4]"].result
    large = by_label["[4x8]"].result
    assert (
        large.device.page_invalidations / large.transactions
        < small.device.page_invalidations / small.transactions
    )


@claim("A2")
def ablation_buffer(rows):
    # Bigger pools hit more, so fewer device writes overall...
    writes = [
        r.result.device.total_host_write_ops + r.result.device.host_delta_writes
        for r in rows
    ]
    assert writes[0] > writes[-1]

    # ...but very large pools accumulate updates past N x M, so the IPA
    # share of dirty evictions does not keep improving.
    fractions = [r.result.storage.ipa_share for r in rows]
    assert max(fractions) > 0.3
    # Small pools keep residencies short: conformance stays healthy there.
    assert fractions[0] > 0.3


@claim("A3")
def ablation_op(rows):
    traditional = [r for r in rows if r.label.startswith("traditional")]
    ipa = [r for r in rows if r.label.startswith("ipa")]

    # More OP => emptier victims => fewer migrations (baseline).
    migrations = [r.result.device.gc_page_migrations for r in traditional]
    assert migrations[0] >= migrations[-1]

    # IPA's GC load sits below the baseline at the same OP point.
    for base_row, ipa_row in zip(traditional, ipa):
        ipa_gc = ipa_row.result.device.gc_overhead
        assert ipa_gc <= base_row.result.device.gc_overhead


@claim("A4")
def ipl_sweep(rows):
    """One TPC-B trace replayed through IPA and IPL at several log-region
    sizes: the paper's trace-driven method (E6b), identical logical I/O,
    different physical outcome."""
    ipa = rows[0].result.flash
    ipl_rows = [r.result.flash for r in rows[1:]]

    # IPA reads less than every IPL configuration (log pages hurt reads).
    assert all(ipa.page_reads < r.page_reads for r in ipl_rows)

    # Larger log regions trade erases for reads.
    by_label = {r.label: r.result.flash for r in rows}
    small = by_label["IPL log=4p sector=512B"]
    large = by_label["IPL log=16p sector=512B"]
    assert large.block_erases <= small.block_erases
    assert large.page_reads >= small.page_reads

    # No IPL point matches IPA on both axes at once.
    for r in ipl_rows:
        assert not (
            r.program_ops <= ipa.program_ops and r.page_reads <= ipa.page_reads
        )

    # E6b, against IPL's default layout: same trace, fewer physical
    # writes under IPA (paper: -23..-62 %).
    ipl = by_label["IPL log=8p sector=512B"]
    assert ipa.program_ops < ipl.program_ops
    # IPL's structural read overhead: log pages on every logical read.
    assert ipl.page_reads > ipa.page_reads * 1.5
    # IPA actually used the append path.
    assert rows[0].result.device.in_place_appends > 0


@claim("A5")
def ablation_wal(rows):
    """Durability cost does not erase IPA's advantage."""
    by_label = {r.label: r for r in rows}
    base_off = by_label["traditional wal=off"].result
    base_on = by_label["traditional wal=on"].result
    ipa_off = by_label["ipa-native wal=off"].result
    ipa_on = by_label["ipa-native wal=on"].result

    # Commit forcing costs throughput in both worlds.
    assert base_on.tps < base_off.tps
    assert ipa_on.tps < ipa_off.tps

    # IPA's advantage survives durable commits.
    assert ipa_on.tps > base_on.tps
    assert ipa_on.device.gc_erases <= base_on.device.gc_erases

    # The GC profile is unchanged by logging (separate log device).
    assert (
        ipa_on.device.page_invalidations
        <= ipa_off.device.page_invalidations * 1.2
    )


@claim("E11")
def tail_latency(rows):
    """IPA shrinks the GC-stall tail; the traced spans explain it."""
    traditional = rows[0].result
    ipa = rows[1].result

    # Both configurations pay similar medians (a miss costs a read)...
    assert traditional.latency_p50_us > 0
    assert ipa.latency_p50_us > 0

    # ...but the baseline's tail carries GC stalls.
    assert ipa.latency_p99_us < traditional.latency_p99_us
    assert ipa.latency_max_us < traditional.latency_max_us

    # The tail dominance shows in the p99/p50 ratio.
    base_ratio = traditional.latency_p99_us / traditional.latency_p50_us
    ipa_ratio = ipa.latency_p99_us / ipa.latency_p50_us
    assert ipa_ratio < base_ratio

    # The trace explains the tail: the baseline run contains inline
    # gc_erase spans, causally attributed through host_write to the
    # transaction whose flush tripped collection; IPA removes (nearly)
    # all of them.
    trad_erases = rows[0].gc_erase_spans
    ipa_erases = rows[1].gc_erase_spans
    assert trad_erases > 0
    assert rows[0].gc_attribution_rate >= 0.95
    # "~none": at most a residual fraction of the baseline's erase count.
    assert ipa_erases <= max(2, trad_erases // 10)


@claim("E10")
def ycsb_mixes(rows):
    def pick(mix, label):
        return next(
            r for r in rows
            if r.result.workload == f"ycsb-{mix}" and r.label == label
        )

    # Whole-field updates: [2x4] cannot capture them, [2x12] can.
    assert pick("a", "[2x4]").result.storage.ipa_share == 0.0
    assert pick("a", "[2x12]").result.storage.ipa_share > 0.3

    # With a fitting M, the update-heavy mix invalidates far less.
    assert (
        pick("a", "[2x12]").result.device.page_invalidations
        < pick("a", "[0x0]").result.device.page_invalidations * 0.8
    )

    # Read-only mix: nothing to append anywhere.
    assert pick("c", "[2x12]").result.device.host_delta_writes == 0


@pytest.fixture(scope="module")
def sections():
    """Every report section, run once at the fast scale on all cores."""
    return {
        experiment_id(s): s for s in run_all.run_sections(fast=True, jobs=0)
    }


def test_every_section_is_rendered_and_claimed(sections):
    assert list(sections) == [
        "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8",
        "A1", "A2", "A3", "A4", "A5", "E11", "E10",
    ]
    assert set(sections) == set(CLAIMS)
    report = run_all.render(list(sections.values()), fast=True)
    for section in sections.values():
        assert f"## {section.title}\n" in report
        assert f"**Paper reference:** {section.paper_note}\n" in report


def test_fast_report_is_the_golden(sections):
    # The whole fast report, every cell of every table: the section
    # table renders exactly what the per-experiment modules it replaced
    # rendered.
    report = run_all.render(list(sections.values()), fast=True)
    assert report + "\n" == GOLDEN.read_text()


@pytest.mark.parametrize("experiment", list(CLAIMS))
def test_paper_claims(sections, experiment):
    check(sections[experiment])


def test_failing_claim_names_its_section(monkeypatch):
    (fig1,) = run_all.COMMANDS["fig1"]

    def run(scale):
        traditional, ipa = fig1.run(scale)
        return [traditional, replace(ipa, pages_invalidated=1)]

    monkeypatch.setattr(run_all, "SECTIONS", (fig1._replace(run=run),))
    (section,) = run_all.run_sections(fast=True)
    with pytest.raises(AssertionError, match="E2 — Figure 1"):
        check(section)
