"""Determinism regression: the dynamic twin of lint rule R1.

The crash sweep replays runs by (seed, op-count) coordinates, so the
whole experimental method rests on a seeded run being byte-identical on
every execution.  This runs a seeded TPC-B workload twice per backend —
every name in :data:`repro.stack.BACKENDS`, with 4 channels + background
GC where the architecture supports them — and asserts the two stat digests match
exactly.  Any wall-clock read, unseeded RNG draw or iteration-order
dependence anywhere in the stack shows up here as a digest mismatch.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

import pytest

from repro.bench.harness import (
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
)
from repro.core.config import SCHEME_2X4
from repro.stack import BACKENDS
from repro.workloads.tpcb import TpcbWorkload

SEED = 20170321  # EDBT 2017


def _config(architecture: str, seed: int = SEED) -> ExperimentConfig:
    # IPL models the paper's single-chip in-page-logging baseline: it
    # rejects multi-channel striping, so it runs at 1 channel without
    # background GC; every other backend gets the full 4-channel +
    # background-GC treatment where cross-channel races would hide.
    multi = architecture != "ipl"
    return ExperimentConfig(
        workload=TpcbWorkload(scale=1),
        architecture=architecture,
        scheme=SCHEME_2X4 if architecture.startswith("ipa") else None,
        transactions=300,
        seed=seed,
        channels=4 if multi else 1,
        background_gc=multi,
    )


def _digest(result: ExperimentResult) -> str:
    encoded = json.dumps(asdict(result), sort_keys=True).encode()
    return hashlib.sha256(encoded).hexdigest()


@pytest.mark.parametrize("architecture", BACKENDS)
def test_seeded_run_is_byte_identical(architecture):
    first = _digest(run_experiment(_config(architecture)))
    second = _digest(run_experiment(_config(architecture)))
    assert first == second, (
        f"{architecture}: identical seeded runs produced different stats "
        "digests — nondeterminism in the stack"
    )


def test_different_seeds_differ():
    # Guard against the digest being insensitive (e.g. hashing only
    # config-derived fields): a different seed must change it.
    first = _digest(run_experiment(_config("traditional")))
    second = _digest(run_experiment(_config("traditional", seed=SEED + 1)))
    assert first != second
