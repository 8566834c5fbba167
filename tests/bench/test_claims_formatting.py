"""Delta formatting: the zero-baseline "+0%" bug stays dead.

A TATP run short enough that the *baseline* never garbage-collects used
to report its E5 GC-overhead delta as "+0%" — the delta returned 0 for
a zero denominator, presenting "IPA did not help" where nothing was
measured.  The fix propagates ``nan`` to an explicit "n/a" cell; E6's
cells go through the same helper, so a zero IPL count reads "n/a" and a
negative read overhead keeps its sign.
"""

import math

from repro.bench.harness import ExperimentResult
from repro.bench.report import Row, fmt_pct, fmt_ratio, relative_pct
from repro.bench.tables import IPL_COLUMNS
from repro.flash.stats import DeviceStats, FlashStats


def e6_cells(ipa, ipl):
    """E6's cells for a TPC-B row of two runs given as (physical
    writes, erases, page reads, TPS)."""

    def run(writes, erases, reads, tps):
        return ExperimentResult(
            "run", "tpcb", 1, 1.0, tps,
            device=DeviceStats(host_reads=reads),
            flash=FlashStats(page_programs=writes, block_erases=erases),
        )

    row = Row("tpcb", run(*ipa), run(*ipl))
    return [cell(row) for _, cell in IPL_COLUMNS]


class TestPct:
    def test_zero_baseline_is_nan_not_zero(self):
        assert math.isnan(relative_pct(0, 0))
        assert math.isnan(relative_pct(17, 0))

    def test_ordinary_deltas(self):
        assert relative_pct(150, 100) == 50.0
        assert relative_pct(33, 100) == -67.0
        assert relative_pct(100, 100) == 0.0


class TestFormatting:
    def test_nan_renders_as_na(self):
        assert fmt_pct(math.nan) == "n/a"
        assert fmt_ratio(math.nan) == "n/a"

    def test_pct_keeps_sign(self):
        assert fmt_pct(-66.7) == "-67%"
        assert fmt_pct(45.2) == "+45%"
        assert fmt_pct(0.0) == "+0%"

    def test_ratio_two_decimals_distinguish_near_one(self):
        # 330 vs 318 erases is a real 1.04x — one decimal place used to
        # round it to "1.0x", indistinguishable from the old clamp.
        assert fmt_ratio(330 / 318) == "1.04x"
        assert fmt_ratio(2.74) == "2.74x"
        assert fmt_ratio(float("inf")) == "inf"


class TestIpaVsIpl:
    def test_zero_ipl_base_is_na_not_zero(self):
        # Used to read "+0%": the inline delta returned 0 for a zero base.
        assert e6_cells((40, 3, 100, 500.0), (0, 0, 200, 400.0)) == [
            "tpcb", "40/0", "n/a", "3/0", "n/a", "100/200", "+100%", "500/400",
        ]

    def test_negative_read_overhead_keeps_its_sign(self):
        # Used to read "+-25%": the sign was printed by hand.
        assert e6_cells((40, 3, 200, 500.0), (80, 6, 150, 400.0)) == [
            "tpcb", "40/80", "-50%", "3/6", "-50%", "200/150", "-25%", "500/400",
        ]
