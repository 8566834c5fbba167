"""Command-line front door: ``python -m repro <command>``.

Each experiment command prints its EXPERIMENTS.md section(s) at full
scale (DESIGN.md's index); the rest run the service, the observed run
and the demo:

{experiments}
    python -m repro service [...]     # sharded multi-session service tier
    python -m repro obs [report] [--fast]   # observed run: spans, GC
                                            # attribution, WA waterfall
    python -m repro obs timeline out.json   # Chrome-trace/Perfetto timeline
    python -m repro all [--fast] [--out FILE]   # regenerate EXPERIMENTS.md
    python -m repro demo [...]        # the EDBT demo scenarios (CLI GUI)
"""

from __future__ import annotations

import sys


def _help() -> str:
    """The docstring, listing each experiment command's sections from
    the section table."""
    from repro.bench.run_all import COMMANDS

    lines = []
    for command, experiments in COMMANDS.items():
        for i, experiment in enumerate(experiments):
            lead = f"python -m repro {command}" if i == 0 else ""
            lines.append(f"    {lead:<33} # {experiment.title}")
    return (__doc__ or "").format(experiments="\n".join(lines))


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(_help())
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
        from repro.bench.run_all import COMMANDS, render_section, run_section

        if command not in COMMANDS:
            print(f"unknown command {command!r}; try --help")
            return 2
        for experiment in COMMANDS[command]:
            print(render_section(run_section(experiment)))
        return 0
    run()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
