"""Admission control: bounded per-shard queues with shed-or-wait.

The controller holds no locks: the service's one scheduler is a
single-threaded event loop, so the decision function and the counters
are plain sequential code.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from typing import TYPE_CHECKING, Deque, List

if TYPE_CHECKING:
    from repro.service.session import Request

__all__ = ["AdmissionController", "AdmissionDecision"]


class AdmissionDecision(Enum):
    """Outcome of offering a request to a full-or-not shard queue."""

    ADMITTED = "admitted"
    SHED = "shed"
    WAIT = "wait"


class AdmissionController:
    """Bounded FIFO request queue with an overload policy.

    Args:
        depth: Max queued requests (excluding any executing batch).
        policy: ``"shed"`` or ``"wait"`` — what :meth:`offer` returns
            when the queue is full.

    Overload counters ``sheds`` / ``waits`` / ``wait_us`` are plain
    numbers, counted on every run: :meth:`offer` increments the first
    two, :meth:`admit` credits ``wait_us`` when a parked request is
    finally admitted.  Counter semantics (pinned by ``tests/service/test_admission.py``):
    ``waits`` counts *distinct parks* — the first ``WAIT`` a request
    receives marks it ``parked`` and further :meth:`offer` calls for the
    same request while the queue is still full return ``WAIT`` without
    incrementing, so a retry loop cannot inflate the park count.
    ``sheds`` deliberately counts every rejection: a shed request is
    dropped, so each shed *is* a distinct client-visible event.
    """

    def __init__(self, depth: int, policy: str) -> None:
        if depth < 1:
            raise ValueError("queue depth must be >= 1")
        if policy not in ("shed", "wait"):
            raise ValueError(f"unknown admission policy {policy!r}")
        self.depth = depth
        self.policy = policy
        self.queue: Deque["Request"] = deque()
        self.sheds = 0
        self.waits = 0
        self.wait_us = 0.0

    def has_room(self) -> bool:
        return len(self.queue) < self.depth

    def __len__(self) -> int:
        return len(self.queue)

    def offer(self, request: "Request") -> AdmissionDecision:
        """Enqueue if there is room, else apply the overload policy.

        Returns the decision; on ``SHED``/``WAIT`` the request was *not*
        queued and the matching counter was incremented — the caller
        owns what happens next (drop + back off, or park the session).
        A request re-offered while already parked stays one park:
        ``waits`` counts sessions parked, not retry attempts.
        """
        if self.has_room():
            self.queue.append(request)
            return AdmissionDecision.ADMITTED
        if self.policy == "shed":
            self.sheds += 1
            return AdmissionDecision.SHED
        if not request.parked:
            request.parked = True
            self.waits += 1
        return AdmissionDecision.WAIT

    def admit(self, request: "Request", waited_us: float = 0.0) -> None:
        """Force-enqueue a previously parked request (a slot just freed).

        ``waited_us`` is credited to the ``wait_us`` counter so reports
        can separate time-in-queue from time-parked-at-the-door.
        """
        if not self.has_room():
            raise RuntimeError("admit() without a free slot")
        self.wait_us += waited_us
        request.parked = False
        self.queue.append(request)

    def take(self, limit: int) -> List["Request"]:
        """Dequeue up to ``limit`` requests, FIFO."""
        batch: List["Request"] = []
        while self.queue and len(batch) < limit:
            batch.append(self.queue.popleft())
        return batch
