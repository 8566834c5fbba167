"""Bit-accurate NAND Flash simulator.

This package is the hardware substrate of the reproduction: it stands in for
the OpenSSD Jasmine research board used by the paper.  It models NAND Flash
down to the level the paper's argument depends on:

* the *physical programming constraint* — ISPP can only add charge to a
  cell, so a page may be reprogrammed without an erase **iff** every bit
  transition is 1 -> 0 (SLC) / every cell's charge level is non-decreasing
  (MLC).  This is the fact In-Place Appends exploits (paper Section 2);
* SLC / MLC / pseudo-SLC / odd-MLC operating modes and their differing
  tolerance to program interference (paper Section 3);
* per-page OOB areas holding the initial-data ECC plus one ECC slot per
  delta-record (paper Figure 3);
* latency and wear accounting, which turn operation counts into the
  throughput and longevity numbers of Table 1.

Public entry point: :class:`repro.flash.chip.FlashChip`;
:func:`media_digest` hashes the media of any chip or device.
"""

from repro.flash.chip import FlashChip, media_digest
from repro.flash.errors import (
    BadBlockError,
    EccUncorrectableError,
    FlashError,
    IllegalAddressError,
    IllegalProgramError,
    WriteToProgrammedPageError,
)
from repro.flash.geometry import FlashGeometry
from repro.flash.latency import LatencyModel, SimClock
from repro.flash.modes import FlashMode
from repro.flash.page import PageState
from repro.flash.stats import FlashStats

__all__ = [
    "BadBlockError",
    "EccUncorrectableError",
    "FlashChip",
    "FlashError",
    "FlashGeometry",
    "FlashMode",
    "FlashStats",
    "IllegalAddressError",
    "IllegalProgramError",
    "LatencyModel",
    "PageState",
    "SimClock",
    "WriteToProgrammedPageError",
    "media_digest",
]
