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
metrics = {"host_ops_per_s": HOST, "setup_s": SETUP, "peak_rss_mb": 50.0}
metrics.update((name, SIM + seed) for name in SIM_NAMES)
print("a log line")
print(json.dumps({"correct": True, "attempted": 10, "failed": 0,
                  "metrics": {k: {"value": v} for k, v in metrics.items()}}))
"""


#: The contract's simulated metrics, which the fake run reports too.
_SIM_NAMES = sorted(name for name in pairs.better_directions() if name.startswith("sim_"))


def _checkout(
    root: Path, name: str, host: float, sim: float, setup: float = 0.4
) -> Path:
    run = root / name / "benchmarks" / "e2e" / "run.py"
    run.parent.mkdir(parents=True)
    run.write_text(
        _FAKE_RUN.replace("HOST", repr(host))
        .replace("SETUP", repr(setup))
        .replace("SIM_NAMES", repr(_SIM_NAMES))
        .replace("SIM", repr(sim))
    )
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
    # One line per pair: the ratio of every measured metric.
    assert out.count("          1.100          1.000          1.000\n") == 3
    assert "host_ops_per_s (higher is better): median ratio 1.100, " \
        "change wins 3 of 3;" in out
    assert "sim_*: equal in every pair" in out


def test_a_moved_simulated_value_fails(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", 100.0, 5.0)
    change = _checkout(tmp_path, "change", 90.0, 6.0)
    argv = [str(parent), str(change), "--workload", "w", "--seeds", "4"]
    assert pairs.main(argv) == 1
    out = capsys.readouterr().out
    assert "host_ops_per_s (higher is better): median ratio 0.900, " \
        "change wins 0 of 1;" in out
    assert "seed 4: sim_ops_per_s 9.0 -> 10.0" in out
    assert "sim_*: equal" not in out


def test_a_failed_run_stops_the_series(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", 100.0, 5.0)
    (tmp_path / "change").mkdir()  # no run.py: the run fails
    argv = [str(parent), str(tmp_path / "change"), "--workload", "w", "--seeds", "1"]
    assert pairs.main(argv) == 2
    assert "run failed" in capsys.readouterr().err


def test_a_run_without_a_contract_metric_fails(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", 100.0, 5.0)
    change = _checkout(tmp_path, "change", 100.0, 5.0)
    run = change / "benchmarks" / "e2e" / "run.py"
    run.write_text(run.read_text().replace('"peak_rss_mb": 50.0', '"rss": 50.0'))
    argv = [str(parent), str(change), "--workload", "w", "--seeds", "1"]
    assert pairs.main(argv) == 2
    assert "no ['peak_rss_mb']" in capsys.readouterr().err


def test_quartiles_of_short_series():
    assert pairs.quartiles([2.0]) == [2.0, 2.0, 2.0]
    assert pairs.quartiles([1.0, 3.0])[1] == 2.0


def test_every_metric_is_judged_in_its_direction(tmp_path, capsys):
    """``setup_s`` is ``"better": "lower"`` in BENCHMARK.json: a pair wins
    when the change's value is the smaller, and sub-second values keep
    their digits; ``host_ops_per_s`` wins above 1, from the same runs."""
    parent = _checkout(tmp_path, "parent", 71000.0, 5.0, setup=0.405)
    change = _checkout(tmp_path, "change", 76900.0, 5.0, setup=0.321)
    argv = [str(parent), str(change), "--workload", "w", "--seeds", "1-2"]
    assert pairs.main(argv) == 0
    out = capsys.readouterr().out
    assert out.count("          1.083          0.793          1.000\n") == 2
    assert (
        "setup_s (lower is better): median ratio 0.793, change wins 2 of 2; "
        "parent 0.405 [0.405 .. 0.405] -> change 0.321; "
        "gap -0.084, parent quartile spread 0\n"
    ) in out
    assert (
        "host_ops_per_s (higher is better): median ratio 1.083, "
        "change wins 2 of 2; parent 71000 [71000 .. 71000] -> change 76900;"
    ) in out
    assert "peak_rss_mb (lower is better): median ratio 1.000, " \
        "change wins 0 of 2;" in out


def test_every_end_to_end_metric_has_a_direction():
    directions = pairs.better_directions()
    assert directions["host_ops_per_s"] == "higher"
    assert directions["setup_s"] == "lower"
    assert set(directions.values()) == {"higher", "lower"}
