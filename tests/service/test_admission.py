"""Admission controller: bounded queue, shed/wait policies, counters."""

import pytest

from repro.service import AdmissionController, AdmissionDecision
from repro.service.session import Request, Session


def make_request(tenant=0):
    import numpy as np

    session = Session(
        tenant=tenant, shard=0, rng=np.random.default_rng(0), remaining=1
    )
    return Request(session, issue_us=0.0)


def make_controller(depth=2, policy="shed"):
    return AdmissionController(depth=depth, policy=policy)


class TestAdmission:
    def test_admits_until_full(self):
        ctrl = make_controller(depth=2)
        assert ctrl.offer(make_request()) is AdmissionDecision.ADMITTED
        assert ctrl.offer(make_request()) is AdmissionDecision.ADMITTED
        assert len(ctrl) == 2
        assert not ctrl.has_room()

    def test_shed_policy_rejects_and_counts(self):
        ctrl = make_controller(depth=1, policy="shed")
        ctrl.offer(make_request())
        assert ctrl.offer(make_request()) is AdmissionDecision.SHED
        assert ctrl.sheds == 1
        assert len(ctrl) == 1  # the shed request was not queued

    def test_wait_policy_parks_and_counts(self):
        ctrl = make_controller(depth=1, policy="wait")
        ctrl.offer(make_request())
        assert ctrl.offer(make_request()) is AdmissionDecision.WAIT
        assert ctrl.waits == 1
        assert len(ctrl) == 1

    def test_waits_count_distinct_parks_not_retry_attempts(self):
        # Pinned semantics (PR 9 audit): one parked request re-offered
        # N times is one wait, however long it spins.
        ctrl = make_controller(depth=1, policy="wait")
        ctrl.offer(make_request())
        parked = make_request()
        for _ in range(5):
            assert ctrl.offer(parked) is AdmissionDecision.WAIT
        assert parked.parked is True
        assert ctrl.waits == 1

    def test_admit_clears_park_so_a_later_park_counts_again(self):
        ctrl = make_controller(depth=1, policy="wait")
        blocker = make_request()
        ctrl.offer(blocker)
        parked = make_request()
        ctrl.offer(parked)
        ctrl.take(1)
        ctrl.admit(parked, waited_us=10.0)
        assert parked.parked is False
        assert ctrl.waits == 1
        # The same request parks again behind a new blocker: a second
        # distinct park, a second count.
        ctrl.take(1)
        ctrl.offer(make_request())
        assert ctrl.offer(parked) is AdmissionDecision.WAIT
        assert ctrl.waits == 2

    def test_sheds_count_every_rejection(self):
        # Contrast with waits: shed has no park state, so every retry
        # of an unlucky request increments the counter.
        ctrl = make_controller(depth=1, policy="shed")
        ctrl.offer(make_request())
        unlucky = make_request()
        for _ in range(3):
            assert ctrl.offer(unlucky) is AdmissionDecision.SHED
        assert ctrl.sheds == 3

    def test_take_is_fifo(self):
        ctrl = make_controller(depth=3)
        for tenant in (3, 1, 2):
            ctrl.offer(make_request(tenant))
        batch = ctrl.take(2)
        assert [r.session.tenant for r in batch] == [3, 1]
        assert len(ctrl) == 1

    def test_admit_credits_wait_time(self):
        ctrl = make_controller(depth=1)
        ctrl.admit(make_request(), waited_us=123.5)
        assert ctrl.wait_us == 123.5

    def test_admit_without_room_rejected(self):
        ctrl = make_controller(depth=1)
        ctrl.offer(make_request())
        with pytest.raises(RuntimeError):
            ctrl.admit(make_request())

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            AdmissionController(depth=0, policy="shed")
        with pytest.raises(ValueError):
            AdmissionController(depth=1, policy="drop-newest")
