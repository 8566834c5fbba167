"""``benchmarks/pairs.py`` over two fake checkouts whose contract command
prints a fixed result and logs the order it ran in."""

from __future__ import annotations

from pathlib import Path

from benchmarks import pairs

_FAKE_RUN = """\
import json, sys
from pathlib import Path
args = sys.argv[1:]
seed = int(args[args.index("--seed") + 1])
assert args[args.index("--seconds") + 1] == "5"
assert args[args.index("--trace") + 1] == "0"
here = Path(__file__).resolve().parents[2]
with open(here.parent / "order.log", "a") as log:
    log.write(f"{here.name} {seed}\\n")
metrics = {"host_ops_per_s": HOST, "sim_ops_per_s": SIM + seed}
print("a log line")
print(json.dumps({"correct": True, "attempted": 10, "failed": 0,
                  "metrics": {k: {"value": v} for k, v in metrics.items()}}))
"""


def _checkout(root: Path, name: str, host: float, sim: float) -> Path:
    run = root / name / "benchmarks" / "e2e" / "run.py"
    run.parent.mkdir(parents=True)
    run.write_text(_FAKE_RUN.replace("HOST", repr(host)).replace("SIM", repr(sim)))
    return root / name


def test_parse_seeds():
    assert pairs.parse_seeds("101-103") == [101, 102, 103]
    assert pairs.parse_seeds("7,9-10") == [7, 9, 10]


def test_alternates_and_reports_every_pair(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", 100.0, 5.0)
    change = _checkout(tmp_path, "change", 110.0, 5.0)
    argv = [str(parent), str(change), "--workload", "w", "--seeds", "1-3"]
    assert pairs.main(argv) == 0
    order = (tmp_path / "order.log").read_text().split("\n")
    assert order[:6] == [
        "parent 1", "change 1", "change 2", "parent 2", "parent 3", "change 3"
    ]
    out = capsys.readouterr().out
    assert out.count("   1.100\n") == 3  # one line per pair
    assert "median ratio 1.100, change wins 3 of 3" in out


def test_a_moved_simulated_value_fails(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", 100.0, 5.0)
    change = _checkout(tmp_path, "change", 90.0, 6.0)
    argv = [str(parent), str(change), "--workload", "w", "--seeds", "4"]
    assert pairs.main(argv) == 1
    out = capsys.readouterr().out
    assert "change wins 0 of 1" in out
    assert "seed 4: sim_ops_per_s 9.0 -> 10.0" in out


def test_a_failed_run_stops_the_series(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", 100.0, 5.0)
    (tmp_path / "change").mkdir()  # no run.py: the run fails
    argv = [str(parent), str(tmp_path / "change"), "--workload", "w", "--seeds", "1"]
    assert pairs.main(argv) == 2
    assert "run failed" in capsys.readouterr().err


def test_quartiles_of_short_series():
    assert pairs.quartiles([2.0]) == [2.0, 2.0, 2.0]
    assert pairs.quartiles([1.0, 3.0])[1] == 2.0
