"""Disabled-sanitizer, -ledger and -tracer overhead guards.

REPRO_SANITIZE=0 must be free, and so must an un-observed stack's
write-attribution ledger / lifetime-tracker hooks and an attached but
disabled span tracer (docs/observability.md; bound 5%).
Every sanitizer hook is one attribute load + one bool test when the
flag is off; this A/B-times the same overwrite workload with the shared
NULL_SANITIZER default versus an attached-but-disabled sanitizer
instance and asserts the ratio stays under 2%.  A hook that starts
doing work before checking ``enabled`` (or a check that allocates)
costs 10%+ and shows up here immediately.

Measuring a <2% bound on wall-clock needs care on a loaded machine:

* One stack, alternating the attached sanitizer slice-by-slice — two
  separately built stacks differ in heap placement, which reads as
  several percent of fake "overhead".  The disabled hooks do no work,
  so the stack's state evolution is role-independent.
* The role <-> slice phase flips every round, so both roles time every
  slice (slices do different amounts of GC work).
* Per-(slice, role) *minimum* across rounds: external load only ever
  inflates a timing, so the min over many short samples converges on
  the unloaded cost for both roles alike.
* Up to three independent measurement attempts: the gate fails only if
  every attempt exceeds the bound.  A genuine hook regression exceeds
  it every time; a load burst does not.
"""

import gc as _pygc
import time

import numpy as np

from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.sanitize import Sanitizer
from repro.ftl.page_mapping import PageMappingFtl
from repro.obs.ledger import LifetimeTracker, WriteLedger
from repro.obs.trace import Tracer

GEO = FlashGeometry(page_size=4096, oob_size=128, pages_per_block=64,
                    blocks=64)

SLICE = 256
ROUNDS = 12


class _DisabledSanitizer(Sanitizer):
    """A real Sanitizer whose hooks are switched off — the disabled
    branch must cost the same as the shared null object."""

    # Match _NullSanitizer's layout: without this the instance grows a
    # __dict__ and every `sz.enabled` load pays an instance-dict miss,
    # which the A/B would misread as hook overhead.
    __slots__ = ()
    enabled = False


class _DisabledLedger(WriteLedger):
    """A real WriteLedger with its hooks switched off (layout-matched)."""

    __slots__ = ()
    enabled = False


class _DisabledLifetimeTracker(LifetimeTracker):
    """A real LifetimeTracker with its hooks switched off."""

    __slots__ = ()
    enabled = False


def _build():
    ftl = PageMappingFtl(FlashChip(GEO), over_provisioning=0.2)
    rng = np.random.default_rng(1)
    lbas = [int(x) for x in rng.integers(0, ftl.logical_pages, size=4096)]
    return ftl, lbas


def _sanitizer_roles(ftl):
    """(attach-baseline, attach-off) closures for the sanitizer A/B."""
    null = ftl.chip.sanitizer  # the shared NULL_SANITIZER default
    off = _DisabledSanitizer()

    def attach(sanitizer):
        ftl.chip.sanitizer = sanitizer
        ftl.sanitizer = sanitizer

    return (lambda: attach(null)), (lambda: attach(off))


def _ledger_roles(ftl):
    """(attach-baseline, attach-off) closures for the ledger A/B.

    Baseline is the shared NULL_LEDGER / NULL_LIFETIMES class defaults;
    the off role attaches real-but-disabled instances, exercising the
    ``lg = self.ledger; if lg.enabled`` guards on the chip program path,
    the FTL's OOB shift and lifetime hooks.
    """
    null_ledger = ftl.chip.ledger
    null_lifetimes = ftl.lifetimes
    off_ledger = _DisabledLedger()
    off_lifetimes = _DisabledLifetimeTracker(ftl.chip.clock)

    def attach(ledger, lifetimes):
        ftl.chip.ledger = ledger
        ftl.ledger = ledger
        ftl.lifetimes = lifetimes

    return (
        lambda: attach(null_ledger, null_lifetimes),
        lambda: attach(off_ledger, off_lifetimes),
    )


def _tracer_roles(ftl):
    """(attach-baseline, attach-off) closures for the span-tracer A/B:
    the shared NULL_TRACER default versus a real Tracer that is attached
    to the FTL and the chip but disabled."""
    null = ftl.chip.tracer
    off = Tracer(clock=ftl.chip.clock)
    off.enabled = False  # instance override: attached but disabled

    def attach(tracer):
        ftl.tracer = tracer
        ftl.chip.tracer = tracer

    return (lambda: attach(null)), (lambda: attach(off))


def _measure_ratio(roles=_sanitizer_roles):
    payload = b"\xab" * 512
    ftl, lbas = _build()
    attach_base, attach_off = roles(ftl)
    slices = [lbas[i:i + SLICE] for i in range(0, len(lbas), SLICE)]
    for sl in slices:  # warm-up
        for lba in sl:
            ftl.write_page(lba, payload)
    base_min = [float("inf")] * len(slices)
    off_min = [float("inf")] * len(slices)
    _pygc.disable()
    try:
        for round_idx in range(ROUNDS):
            for i, sl in enumerate(slices):
                use_off = (i + round_idx) % 2 == 1
                (attach_off if use_off else attach_base)()
                start = time.perf_counter()
                for lba in sl:
                    ftl.write_page(lba, payload)
                elapsed = time.perf_counter() - start
                if use_off:
                    off_min[i] = min(off_min[i], elapsed)
                else:
                    base_min[i] = min(base_min[i], elapsed)
    finally:
        _pygc.enable()
    return sum(off_min) / sum(base_min)


def _assert_free(label, roles, bound=1.02):
    ratios = []
    for _ in range(3):
        ratio = _measure_ratio(roles)
        ratios.append(ratio)
        if ratio <= bound:
            break
    best = min(ratios)
    print(f"\ndisabled-{label} overhead: {100 * (best - 1):+.1f}% "
          f"({len(ratios)} attempt(s))")
    assert best <= bound, (
        f"disabled {label} costs {100 * (best - 1):.1f}% > "
        f"{100 * (bound - 1):.0f}% on the primitive hot path in all "
        f"{len(ratios)} attempts"
    )


def test_disabled_sanitizer_overhead():
    _assert_free("sanitizer", _sanitizer_roles)


def test_disabled_ledger_overhead():
    _assert_free("ledger", _ledger_roles)


def test_disabled_observability_overhead():
    _assert_free("observability", _tracer_roles, bound=1.05)
