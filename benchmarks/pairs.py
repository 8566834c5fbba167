"""Alternating A/B pairs of the benchmark's contract command.

::

    python3 benchmarks/pairs.py PARENT_DIR CHANGE_DIR --workload W --seeds 101-110

runs ``python3 benchmarks/e2e/run.py --workload W --seed N --seconds 5
--trace 0`` once in each checkout for every seed N, back to back: the
parent first on odd pair numbers, the change first on even ones, so a
drift of the machine's speed lands on both sides alike.  Every
end-to-end metric of ``BENCHMARK.json`` is judged from the same runs.
The measured ones (``host_ops_per_s``, ``setup_s``, ``peak_rss_mb``)
get each pair's ratio change / parent, then per metric the median
ratio, the win count and both sides' medians with the parent's
quartiles — a claimed gain stands when the change wins at least nine of
ten pairs and the medians lie further apart than the parent's quartiles
(``docs/performance.md``).  A win is a ratio above 1 for a metric marked
``"better": "higher"`` and below 1 for one marked ``"lower"``.  The
simulated ones (``sim_*``) are deterministic: they must be equal.

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

#: The benchmark contract: each metric's name and which way is better.
CONTRACT = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


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


def better_directions(contract: Path = CONTRACT) -> Dict[str, str]:
    """``{metric: "higher" | "lower"}`` of every end-to-end metric of
    ``contract``."""
    declared = json.loads(contract.read_text())
    return {entry["name"]: entry["better"] for entry in declared["end_to_end"]}


def show(value: float) -> str:
    """``value`` whole from 1 000 up (ops/s), else to four significant
    digits (seconds, MiB, ratios)."""
    return f"{value:.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    args = parser.parse_args(argv)

    directions = better_directions()
    measured = [name for name in directions if not name.startswith("sim_")]
    sides: Dict[str, Dict[str, List[float]]] = {
        side: {name: [] for name in measured} for side in ("parent", "change")
    }
    ratios: Dict[str, List[float]] = {name: [] for name in measured}
    moved: List[str] = []
    print(f"{'seed':>6} {'first':>6}", *(f"{name:>14}" for name in measured))
    for index, seed in enumerate(args.seeds):
        order = ["parent", "change"] if index % 2 == 0 else ["change", "parent"]
        runs = {}
        try:
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                runs[side] = contract_run(checkout, args.workload, seed)
                missing = sorted(set(directions) - set(runs[side]))
                if missing:
                    raise RuntimeError(f"{checkout}, seed {seed}: no {missing}")
        except RuntimeError as failure:
            print(f"run failed: {failure}", file=sys.stderr)
            return 2
        before, after = runs["parent"], runs["change"]
        for name in sorted(before):
            if name.startswith("sim_") and before[name] != after.get(name):
                moved.append(f"seed {seed}: {name} {before[name]!r} -> "
                             f"{after.get(name)!r}")
        for name in measured:
            for side in sides:
                sides[side][name].append(runs[side][name])
            ratios[name].append(after[name] / before[name])
        print(f"{seed:>6} {order[0]:>6}",
              *(f"{ratios[name][-1]:>14.3f}" for name in measured), flush=True)

    for name in measured:
        higher = directions[name] == "higher"
        wins = sum(r > 1.0 if higher else r < 1.0 for r in ratios[name])
        q1, parent_median, q3 = quartiles(sides["parent"][name])
        change_median = statistics.median(sides["change"][name])
        print(f"{name} ({'higher' if higher else 'lower'} is better): "
              f"median ratio {statistics.median(ratios[name]):.3f}, "
              f"change wins {wins} of {len(ratios[name])}; "
              f"parent {show(parent_median)} [{show(q1)} .. {show(q3)}] -> "
              f"change {show(change_median)}; "
              f"gap {show(change_median - parent_median)}, "
              f"parent quartile spread {show(q3 - q1)}")
    if moved:
        print("sim_* values differ within a pair:", *moved, sep="\n  ")
        return 1
    print("sim_*: equal in every pair")
    return 0


if __name__ == "__main__":
    sys.exit(main())
