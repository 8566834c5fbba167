"""The host-visible device contract all three architectures implement."""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.flash.chip import FlashChip
from repro.flash.errors import FlashError
from repro.flash.stats import DeviceStats
from repro.obs.ledger import LifetimeTracker, WriteLedger
from repro.obs.trace import NullTracer, Tracer


class DeviceFullError(FlashError):
    """No reclaimable space: every owned block is fully valid.

    With sane over-provisioning this indicates a logical-capacity
    accounting bug, so it is an error rather than a blocking condition.
    """


@runtime_checkable
class FlashBackend(Protocol):
    """What the storage manager needs from a Flash device.

    ``write_delta`` is optional in spirit: conventional devices return
    ``False`` (command not supported), the storage manager then falls back
    to a whole-page write.  This mirrors the paper's split between the
    block-device IPA (Scenario 2) and native-Flash IPA (Scenario 3).

    The stack protocol: a backend names its own parts, so nothing above
    it probes for them.  ``chip`` is a :class:`FlashChip` or a
    chip-shaped :class:`~repro.flash.device.FlashDevice` — both answer
    ``chips``, ``channels``, ``attach``, ``sync``, ``quiesce`` and
    ``power_loss``.  :meth:`attach` sets each observer only on the parts
    that read it (the backend or its regions, its chip's leaf chips); :attr:`free_blocks` is the free-pool depth;
    :attr:`stats` holds every counter the backend keeps.
    """

    chip: FlashChip
    stats: DeviceStats

    @property
    def logical_pages(self) -> int:
        """Number of logical pages (LBAs) the host may address."""
        ...

    @property
    def free_blocks(self) -> int:
        """Erased blocks ready for allocation (GC pressure)."""
        ...

    def attach(
        self,
        tracer: Tracer | NullTracer,
        ledger: WriteLedger,
        lifetimes: LifetimeTracker,
    ) -> None:
        """Point the tracer, the write ledger and the lifetime tracker at
        the parts of this backend that read them."""
        ...

    def read_page(self, lba: int) -> bytes:
        """Read one logical page."""
        ...

    def write_page(self, lba: int, data: bytes) -> None:
        """Write one logical page (device decides placement)."""
        ...

    def write_delta(self, lba: int, offset: int, payload: bytes) -> bool:
        """Append ``payload`` at ``offset`` of the page's physical home.

        Returns:
            True if the device performed the in-place append; False if the
            command is unsupported or inapplicable (caller must fall back
            to :meth:`write_page`).
        """
        ...

    def trim(self, lba: int) -> None:
        """Declare a logical page dead (invalidate without rewriting)."""
        ...
