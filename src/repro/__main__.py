"""Command-line front door: ``python -m repro <command>``.

Each experiment command prints its EXPERIMENTS.md section(s) at full
scale (DESIGN.md's index); the rest run the service, the observed run
and the demo:

    python -m repro table1            # E1  — the paper's Table 1
    python -m repro fig1              # E2  — Figure 1
    python -m repro fig2              # E3  — Figure 2 (ISPP)
    python -m repro fig3              # E4  — Figure 3 (page format)
    python -m repro claims            # E5  — headline claims
    python -m repro ipl               # E6  — IPA vs In-Page Logging
    python -m repro update-sizes      # E7  — eviction-size analysis
    python -m repro mlc-modes         # E8  — interference safety
    python -m repro ablations         # A1-A3, A5 — ablation sweeps
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

    if command == "service":
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
        from repro.bench.run_all import COMMANDS, render_section

        if command not in COMMANDS:
            print(f"unknown command {command!r}; try --help")
            return 2
        for section in COMMANDS[command]:
            print(render_section(section(False)))
        return 0
    run()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
