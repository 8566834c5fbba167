"""``PYTHONPATH=src python -m benchmarks.e2e``: the whole benchmark.

Runs every workload (or the ``--workload`` ones) as ``--reps`` plain
fresh-process repetitions, round-robin, then one sampled, one spanned
and two counted passes each; prints every end-to-end and per-layer
metric by name with its unit, runs the output checks, and exits
non-zero if any check fails.  ``--out`` saves the run; ``--compare
A.json B.json`` judges two saved runs against the bounds in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from typing import List, Optional

from benchmarks.e2e.measure import BenchmarkError, measure, summarise
from benchmarks.e2e.report import compare, format_run
from benchmarks.e2e.spec import WORKLOADS, load_contract


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--workload", action="append", choices=WORKLOADS,
        help="run only this workload (repeatable; default: all four)",
    )
    parser.add_argument(
        "--reps", type=int, default=5,
        help="plain repetitions per workload (default 5)",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="op-count factor; 1.0 is about 7 s per repetition (default)",
    )
    parser.add_argument("--out", help="save the run as JSON")
    parser.add_argument(
        "--compare", nargs=2, metavar=("A.json", "B.json"),
        help="compare two saved runs instead of measuring",
    )
    args = parser.parse_args(argv)
    contract = load_contract()

    if args.compare:
        documents = []
        for path in args.compare:
            with open(path) as handle:
                documents.append(json.load(handle))
        text, verdicts = compare(documents[0], documents[1], contract)
        print(text)
        print(
            "\nverdicts: "
            + ", ".join(f"{count} {name}" for name, count in sorted(verdicts.items()))
        )
        return 0 if set(verdicts) <= {"same"} else 1

    if args.reps < 1:
        parser.error("--reps must be >= 1")
    try:
        runs = measure(
            args.workload or WORKLOADS,
            seed=args.seed,
            scale=args.scale,
            reps=args.reps,
            trace=True,
            log=lambda line: print(line, file=sys.stderr),
        )
        summaries = {name: summarise(run) for name, run in runs.items()}
    except BenchmarkError as failure:
        print(f"benchmark failed: {failure}", file=sys.stderr)
        return 1

    document = {
        "meta": {
            "seed": args.seed,
            "scale": args.scale,
            "reps": args.reps,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "workloads": summaries,
    }
    print(format_run(document, contract))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1)
    return 1 if any(s["failed"] or s["errors"] for s in summaries.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
