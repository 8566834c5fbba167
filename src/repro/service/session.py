"""Closed-loop client sessions and the requests they issue."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Session:
    """One closed-loop client (tenant), pinned to a shard.

    A session has at most one request in flight: issue, wait for
    completion (or a shed), think, repeat, until its transaction budget
    is spent.  Its RNG stream is derived from the master seed and is the
    *only* source of randomness in its transactions, which is what makes
    the dispatch log sufficient to replay a shard's media bytes.

    ``rng`` belongs to the workload from the session's first transaction
    on: the draw kernel adopts it and prefetches from it, so nothing else
    may draw from it until :func:`repro.workloads.base.release` has handed
    it back.
    """

    tenant: int
    shard: int
    rng: np.random.Generator
    remaining: int
    completed: int = 0
    shed: int = 0


@dataclass
class Request:
    """One admitted transaction request, queued at its shard.

    ``issue_us`` is the client-view start: the session's *first* attempt
    at this logical transaction (global virtual time).
    """

    session: Session
    issue_us: float
    #: Set by the admission controller the first time this request is
    #: parked (``WAIT``): a request that re-offers while the queue is
    #: still full is one *park*, not one park per retry attempt.
    parked: bool = False
