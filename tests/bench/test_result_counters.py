"""Every counter of a run's result, pinned per backend.

``golden/result_counters.json`` holds, for the five seeded TPC-B runs
of ``tests/integration/test_determinism.py`` (300 transactions each),
every value an :class:`ExperimentResult` reports, keyed by its path on
the result (``device.page_invalidations``, ``storage.ipa_flushes``,
``time_breakdown_us``, ...).  The values were recorded when the result
still copied 21 counters into flat fields, each stored under the path
it now has: the move to counter intervals changed no number.
"""

import json
from dataclasses import fields, is_dataclass
from operator import attrgetter
from pathlib import Path

import pytest

from repro.bench.harness import ExperimentResult, run_experiment
from repro.stack import BACKENDS
from tests.integration.test_determinism import _config

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "result_counters.json").read_text()
)


@pytest.mark.parametrize("architecture", BACKENDS)
def test_result_counters_match_the_golden(architecture):
    result = run_experiment(_config(architecture))
    golden = GOLDEN[architecture]
    # JSON-normalised: dict keys become strings, tuples lists.
    got = {
        path: json.loads(json.dumps(attrgetter(path)(result)))
        for path in golden
    }
    assert got == golden


def test_the_golden_covers_every_field():
    result = ExperimentResult("", "", 0, 0.0, 0.0)
    paths = set()
    for f in fields(result):
        value = getattr(result, f.name)
        if is_dataclass(value):
            paths.update(f"{f.name}.{g.name}" for g in fields(value))
        else:
            paths.add(f.name)
    for architecture, golden in GOLDEN.items():
        assert paths <= set(golden), (architecture, paths - set(golden))
