"""Alternating A/B pairs of the benchmark's contract command.

::

    python3 benchmarks/pairs.py PARENT_DIR CHANGE_DIR --workload W --seeds 101-110

runs ``python3 benchmarks/e2e/run.py --workload W --seed N --seconds 5
--trace 0`` once in each checkout for every seed N, back to back: the
parent first on odd pair numbers, the change first on even ones, so a
drift of the machine's speed lands on both sides alike.  It prints each
pair's ``host_ops_per_s`` (change / parent), then the median ratio, the
win count and both sides' medians with the parent's quartiles — a
claimed gain stands when the change wins at least nine of ten pairs and
the medians lie further apart than the parent's quartiles
(``docs/performance.md``).

Exits 1 if any ``sim_*`` value differs within a pair (simulated
outcomes may never move), 2 if a run fails.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional


def parse_seeds(text: str) -> List[int]:
    """``"101-110"`` -> 101..110; ``"7,9,11"`` -> those; both may mix."""
    seeds: List[int] = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def contract_run(checkout: Path, workload: str, seed: int) -> Dict:
    """``{metric: value}`` of one contract run in ``checkout``."""
    done = subprocess.run(
        [
            sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", "5", "--trace", "0",
        ],
        cwd=checkout, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}, seed {seed}: {done.stderr.strip()}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def quartiles(values: List[float]) -> List[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    args = parser.parse_args(argv)

    metric = "host_ops_per_s"
    sides: Dict[str, List[float]] = {"parent": [], "change": []}
    ratios: List[float] = []
    moved: List[str] = []
    print(f"{'seed':>6} {'first':>6} {'parent':>10} {'change':>10} {'ratio':>7}")
    for index, seed in enumerate(args.seeds):
        order = ["parent", "change"] if index % 2 == 0 else ["change", "parent"]
        runs = {}
        try:
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                runs[side] = contract_run(checkout, args.workload, seed)
        except RuntimeError as failure:
            print(f"run failed: {failure}", file=sys.stderr)
            return 2
        before, after = runs["parent"], runs["change"]
        for name in sorted(before):
            if name.startswith("sim_") and before[name] != after.get(name):
                moved.append(f"seed {seed}: {name} {before[name]!r} -> "
                             f"{after.get(name)!r}")
        for side in sides:
            sides[side].append(runs[side][metric])
        ratios.append(runs["change"][metric] / runs["parent"][metric])
        print(
            f"{seed:>6} {order[0]:>6} {runs['parent'][metric]:>10.0f} "
            f"{runs['change'][metric]:>10.0f} {ratios[-1]:>7.3f}",
            flush=True,
        )

    wins = sum(ratio > 1.0 for ratio in ratios)
    q1, parent_median, q3 = quartiles(sides["parent"])
    change_median = statistics.median(sides["change"])
    print(f"median ratio {statistics.median(ratios):.3f}, "
          f"change wins {wins} of {len(ratios)}")
    print(f"{metric}: parent {parent_median:.0f} [{q1:.0f} .. {q3:.0f}] -> "
          f"change {change_median:.0f}; gap {change_median - parent_median:.0f}, "
          f"parent quartile spread {q3 - q1:.0f}")
    if moved:
        print("sim_* values differ within a pair:", *moved, sep="\n  ")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
