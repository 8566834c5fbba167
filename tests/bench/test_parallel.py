"""The multiprocessing runner's determinism contract.

Serial and ``jobs=N`` runs must produce *identical* merged results —
each work unit is self-seeded, so sharding can only change host
wall-clock (docs/performance.md, round 2).  Failure handling is the
other half of the contract: a worker that raises or dies must surface
the failing unit's name, never hang the parent.
"""

from __future__ import annotations

import dataclasses
import os
import time

import pytest

from repro.bench.harness import ExperimentConfig, run_experiment
from repro.bench.parallel import WorkerFailure, parallel_map, resolve_jobs
from repro.core.config import IpaScheme
from repro.fault.harness import run_sweep
from repro.workloads.base import derive_seeds
from repro.workloads.tpcb import TpcbWorkload


def _square(x: int) -> int:
    return x * x


def _boom(x: int) -> int:
    if x == 3:
        raise ValueError("section exploded")
    return x


def _die(x: int) -> int:
    if x == 2:
        os._exit(17)  # simulate a segfault: no exception crosses the pipe
    time.sleep(0.05)
    return x


def _configs() -> list[ExperimentConfig]:
    return [
        ExperimentConfig(
            workload=TpcbWorkload(scale=1, accounts_per_branch=400),
            architecture=arch,
            scheme=scheme,
            transactions=60,
            buffer_pages=16,
            seed=7,
            label=arch,
        )
        for arch, scheme in [
            ("traditional", IpaScheme(0, 0)),
            ("ipa-blockdev", IpaScheme(2, 4)),
        ]
    ]


class TestPrimitives:
    def test_derive_seeds_deterministic_and_distinct(self):
        assert derive_seeds(42, 5) == derive_seeds(42, 5)
        assert len(set(derive_seeds(42, 5))) == 5
        assert derive_seeds(42, 5) != derive_seeds(43, 5)

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) == (os.cpu_count() or 1)
        with pytest.raises(ValueError):
            resolve_jobs(-1)

    def test_parallel_map_order_matches_serial(self):
        serial = parallel_map(_square, range(9), jobs=1)
        sharded = parallel_map(_square, range(9), jobs=2)
        assert serial == sharded == [x * x for x in range(9)]

    def test_worker_exception_names_the_unit(self):
        labels = [f"config-{i}" for i in range(5)]
        with pytest.raises(WorkerFailure, match="config-3") as info:
            parallel_map(_boom, range(5), jobs=2, labels=labels)
        assert info.value.label == "config-3"
        assert isinstance(info.value.__cause__, ValueError)

    def test_worker_exception_serial_path_too(self):
        with pytest.raises(WorkerFailure, match="config-3"):
            parallel_map(
                _boom, range(5), jobs=1, labels=[f"config-{i}" for i in range(5)]
            )

    def test_dead_worker_surfaces_instead_of_hanging(self):
        # A worker killed without raising breaks the pool; the parent
        # must report which units were still in flight, not deadlock.
        labels = [f"config-{i}" for i in range(4)]
        with pytest.raises(WorkerFailure, match="config-2"):
            parallel_map(_die, range(4), jobs=2, labels=labels)

    def test_label_mismatch_rejected(self):
        with pytest.raises(ValueError, match="one-to-one"):
            parallel_map(_square, range(3), jobs=1, labels=["only-one"])


class TestExperimentSharding:
    def test_run_experiments_matches_serial(self):
        serial = [run_experiment(c) for c in _configs()]
        sharded = parallel_map(run_experiment, _configs(), jobs=2)
        for a, b in zip(serial, sharded):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)


class TestFaultSweepSharding:
    def test_run_sweep_jobs_equivalence(self):
        serial = run_sweep("ipa-native", 4, seed=0xFA117, jobs=1)
        sharded = run_sweep("ipa-native", 4, seed=0xFA117, jobs=2)
        assert (
            serial.backend,
            serial.points,
            serial.torn_repairs,
            serial.ops_total,
        ) == (
            sharded.backend,
            sharded.points,
            sharded.torn_repairs,
            sharded.ops_total,
        )
        assert [dataclasses.asdict(o) for o in serial.failures] == [
            dataclasses.asdict(o) for o in sharded.failures
        ]
