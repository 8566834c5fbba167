"""Flash-translation layers: the three device architectures of the demo.

* :class:`~repro.ftl.page_mapping.PageMappingFtl` — a conventional
  black-box SSD (Demo-Scenario 1 baseline): every page write is
  out-of-place, garbage collection reclaims invalidated pages.
* :class:`~repro.ftl.ipa_ftl.IpaFtl` — an IPA-aware conventional SSD
  (Demo-Scenario 2): the device detects append-only overwrites and
  programs them in place, eliminating the invalidation.
* :class:`~repro.ftl.noftl.NoFtlDevice` — the NoFTL native-Flash
  architecture [6,7] with regions and the ``write_delta`` command
  (Demo-Scenario 3): only the delta bytes cross the host interface.

The three share one FTL: mapping, allocation, garbage collection and
remount live in :class:`PageMappingFtl` alone.  ``IpaFtl`` overrides its
write path, and each NoFTL :class:`~repro.ftl.noftl.Region` is one over
its slice of the chip's blocks.
"""

from repro.ftl.interface import DeviceFullError, FlashBackend
from repro.ftl.ipa_ftl import IpaFtl
from repro.ftl.noftl import NoFtlDevice, Region
from repro.ftl.page_mapping import PageMappingFtl

__all__ = [
    "DeviceFullError",
    "FlashBackend",
    "IpaFtl",
    "NoFtlDevice",
    "PageMappingFtl",
    "Region",
]
