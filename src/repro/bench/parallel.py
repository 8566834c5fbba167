"""Multiprocessing experiment runner: shard work across cores, keep results
bit-identical to a serial run.

Everything this repo measures is *simulated* time, so parallelism is pure
host-side mechanics: each worker process runs whole experiments (or whole
crash points, or whole report sections) and ships the finished result
objects back.  Nothing concurrent touches a shared simulator — every unit
of work builds its own stack from its own config — which is what makes
the determinism contract trivial to state:

* **Sharding never changes results.**  Each work unit carries its own
  seed (an :class:`~repro.bench.harness.ExperimentConfig` has ``seed``;
  a fault-sweep crash point derives ``sweep_seed ^ point``), so a unit
  computes the same answer no matter which worker runs it or in what
  order.  :func:`parallel_map` returns results in *submission* order,
  so ``jobs=1`` and ``jobs=N`` produce identical output lists.
* **All worker randomness descends from the experiment seed.**  When a
  caller needs fresh per-worker seeds, ``repro.workloads.base.derive_seeds``
  spawns them from one ``np.random.SeedSequence(seed)`` — no
  ``os.urandom``, no time-based entropy (the repo's lint enforces this,
  rule R6).
* **Failures surface, they never hang.**  An exception inside a worker
  is re-raised in the parent wrapped in :class:`WorkerFailure` naming
  the failing item; a worker that dies without raising (segfault,
  ``os._exit``, OOM kill) turns the pool's ``BrokenProcessPool`` into a
  :class:`WorkerFailure` listing the units still in flight.

Used by ``python -m repro.bench.run_all --jobs N`` (report sections) and
``repro.fault.harness.run_sweep(jobs=...)`` (crash points).
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "WorkerFailure",
    "parallel_map",
    "resolve_jobs",
    "run_experiments",
]


class WorkerFailure(RuntimeError):
    """A parallel work unit failed; ``label`` names which one.

    ``__cause__`` carries the original worker exception when the worker
    raised normally (it pickles back to the parent); a worker that died
    without raising has no cause.
    """

    def __init__(self, label: str, message: str) -> None:
        super().__init__(message)
        self.label = label


def resolve_jobs(jobs: int) -> int:
    """Map the CLI convention to a worker count: 0 means all cores."""
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def _context() -> multiprocessing.context.BaseContext:
    """Fork where available (Linux): child inherits imported modules, so
    startup is cheap and nothing needs to re-import the repo."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return multiprocessing.get_context()


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: int = 0,
    labels: Sequence[str] | None = None,
) -> list[R]:
    """Ordered map over worker processes.

    Results come back in ``items`` order regardless of completion order,
    so a parallel run is list-identical to ``[fn(x) for x in items]``
    (each item must be self-seeded for that to hold — see the module
    docstring).  ``jobs=1`` *is* that serial loop: no pool, no pickling,
    the exact same code path a debugger can step through.

    Raises:
        WorkerFailure: a unit raised (original exception chained as
            ``__cause__``), or a worker process died without raising —
            either way the error names the offending unit instead of
            deadlocking the parent.
    """
    work = list(items)
    if labels is None:
        labels = [f"item {i}" for i in range(len(work))]
    elif len(labels) != len(work):
        raise ValueError("labels must match items one-to-one")
    n_workers = min(resolve_jobs(jobs), len(work)) or 1
    if n_workers == 1:
        out: list[R] = []
        for label, item in zip(labels, work):
            try:
                out.append(fn(item))
            # Wrapped and chained, never swallowed.
            except Exception as exc:
                raise WorkerFailure(label, f"{label} failed: {exc!r}") from exc
        return out

    results: list[Any] = [None] * len(work)
    finished: set[int] = set()
    with ProcessPoolExecutor(max_workers=n_workers, mp_context=_context()) as pool:
        index_of = {pool.submit(fn, item): i for i, item in enumerate(work)}
        pending = set(index_of)
        while pending:
            done, pending = wait(pending, return_when=FIRST_EXCEPTION)
            # Record successes first so a pool-wide breakage (which fails
            # every remaining future at once) only blames genuinely
            # unfinished units.
            failed = []
            for future in done:
                if future.exception() is None:
                    results[index_of[future]] = future.result()
                    finished.add(index_of[future])
                else:
                    failed.append(future)
            for future in failed:
                i = index_of[future]
                try:
                    future.result()
                except BrokenProcessPool as exc:
                    # The dying worker never raised, so the pool cannot
                    # say which unit it held; every still-unfinished
                    # unit is a suspect — list them all.
                    unfinished = sorted(set(range(len(work))) - finished)
                    suspects = ", ".join(labels[j] for j in unfinished)
                    raise WorkerFailure(
                        labels[i],
                        "worker process died without raising while running "
                        f"one of: {suspects}",
                    ) from exc
                # Wrapped and chained, never swallowed.
                except Exception as exc:
                    raise WorkerFailure(
                        labels[i], f"{labels[i]} failed: {exc!r}"
                    ) from exc
    return results


def _run_one_config(config: Any) -> Any:
    # Module-level (picklable) worker; import inside to keep this module
    # import-light and cycle-free.
    from repro.bench.harness import run_experiment

    return run_experiment(config)


def run_experiments(configs: Sequence[Any], jobs: int = 0) -> list[Any]:
    """Run many :class:`ExperimentConfig`\\ s across cores.

    Returns :class:`ExperimentResult`\\ s in ``configs`` order; each
    config carries its own ``seed``, so the list is identical to a
    serial ``[run_experiment(c) for c in configs]``.  Observation hooks
    (``observe=``) are not supported here — an
    :class:`~repro.obs.Observation` holds live sampler callbacks that
    do not survive pickling; run those configs serially.
    """
    labels = [c.display_label() for c in configs]
    return parallel_map(_run_one_config, configs, jobs=jobs, labels=labels)
