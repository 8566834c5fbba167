"""Command-line front door: ``python -m repro <command>``.

Commands map one-to-one onto the experiment modules (DESIGN.md's index)
plus the demo runner:

    python -m repro table1            # E1  — the paper's Table 1
    python -m repro fig1              # E2  — Figure 1
    python -m repro fig2              # E3  — Figure 2 (ISPP)
    python -m repro fig3              # E4  — Figure 3 (page format)
    python -m repro claims            # E5  — headline claims
    python -m repro ipl               # E6  — IPA vs In-Page Logging
    python -m repro update-sizes      # E7  — eviction-size analysis
    python -m repro mlc-modes         # E8  — interference safety
    python -m repro ablations         # A1-A3
    python -m repro ipl-sweep         # A4  — IPL sizing sweep
    python -m repro ycsb              # E10 — YCSB extension
    python -m repro latency           # E11 — transaction tail latency
    python -m repro service [...]     # sharded multi-session service tier
    python -m repro obs [report] [--fast]   # observed run: spans, GC
                                            # attribution, WA waterfall
    python -m repro obs timeline out.json   # Chrome-trace/Perfetto timeline
    python -m repro all [--fast] [--out FILE]   # regenerate EXPERIMENTS.md
    python -m repro demo [...]        # the EDBT demo scenarios (CLI GUI)
"""

from __future__ import annotations

import sys


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    command, rest = argv[0], argv[1:]
    sys.argv = [f"repro {command}"] + rest

    if command == "table1":
        from repro.bench.table1 import main as run
    elif command == "fig1":
        from repro.bench.fig1 import main as run
    elif command == "fig2":
        from repro.bench.fig2_ispp import main as run
    elif command == "fig3":
        from repro.bench.fig3_layout import main as run
    elif command == "claims":
        from repro.bench.claims import main as run
    elif command == "ipl":
        from repro.bench.ipa_vs_ipl import main as run
    elif command == "update-sizes":
        from repro.bench.update_size_analysis import main as run
    elif command == "mlc-modes":
        from repro.bench.mlc_modes import main as run
    elif command == "ablations":
        from repro.bench.ablations import main as run
    elif command == "ipl-sweep":
        from repro.bench.ipl_sweep import main as run
    elif command == "ycsb":
        from repro.bench.ycsb_mixes import main as run
    elif command == "latency":
        from repro.bench.tail_latency import main as run
    elif command == "service":
        from repro.bench.service_bench import main as run
    elif command == "obs":  # ``obs [report]`` / ``obs timeline``
        from repro.bench.observe import main as run
    elif command == "all":
        from repro.bench.run_all import main as run
    elif command == "demo":
        sys.path.insert(0, "examples")
        try:
            from demo_scenarios import main as run  # type: ignore[import]
        except ImportError:
            print("demo requires running from the repository root")
            return 2
    else:
        print(f"unknown command {command!r}; try --help")
        return 2
    run()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
