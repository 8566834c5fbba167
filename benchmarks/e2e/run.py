"""Contract entry point named by the root ``BENCHMARK.json``.

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S
--trace 0|1`` measures one workload and prints, as the last line of
standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: every ``end_to_end`` metric of
``BENCHMARK.json`` with ``--trace 0``, every ``per_layer`` metric with
``--trace 1``.  Exits non-zero, printing no result, if a repetition
fails or repetitions that must agree do not.

``--seconds`` fixes the *op count* (S / 7 of the full-size workload, see
``spec.NOMINAL_SECONDS``), not a deadline: the same seed and seconds
give the same simulated results on every commit, and a faster program
finishes the same work sooner.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

if __package__ in (None, ""):  # run as a script: make the package importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.e2e.measure import BenchmarkError, measure, summarise  # noqa: E402
from benchmarks.e2e.spec import (  # noqa: E402
    NOMINAL_SECONDS,
    WORKLOADS,
    load_contract,
)

#: Plain repetitions per run: three with tracing off (the median
#: survives one disturbed repetition), two beside the traced set.
REPS = {0: 3, 1: 2}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, required=True, choices=(0, 1))
    args = parser.parse_args(argv)

    contract = load_contract()
    try:
        runs = measure(
            [args.workload],
            seed=args.seed,
            scale=args.seconds / NOMINAL_SECONDS,
            reps=REPS[args.trace],
            trace=bool(args.trace),
            log=lambda line: print(line, file=sys.stderr),
        )
        summary = summarise(runs[args.workload])
    except BenchmarkError as failure:
        print(f"benchmark failed: {failure}", file=sys.stderr)
        return 1

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {
        spec["name"]: {
            "value": summary[section][spec["name"]], "unit": spec["unit"]
        }
        for spec in contract[section]
    }
    for message in summary["errors"]:
        print(f"output check: {message}", file=sys.stderr)
    correct = summary["failed"] == 0 and not summary["errors"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
