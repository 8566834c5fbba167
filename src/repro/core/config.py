"""The N x M scheme: sizing the delta-record area (paper Section 3).

    "The configuration parameter M determines the maximum number of
    <new_value, offset> pairs stored in a single delta-record. [...] The
    number of delta-records per page is controlled by the configuration
    parameter N.  Thus, the delta-record area size for a particular N x M
    configuration is: N x (1 + 3M + delta_metadata)."

Each pair costs 3 bytes (1 value byte + 2 offset bytes), each record adds
a control byte and a full modified copy of the page metadata (header +
footer).  ``[0 x 0]`` denotes IPA disabled — the traditional baseline
column of Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

#: Header and footer sizes of the NSM page layout (see
#: :mod:`repro.storage.layout`); their sum is the paper's delta_metadata.
PAGE_HEADER_SIZE = 24
PAGE_FOOTER_SIZE = 8
DELTA_METADATA_SIZE = PAGE_HEADER_SIZE + PAGE_FOOTER_SIZE

#: Bytes per <new_value, offset> pair: 1 value byte + 2 offset bytes.
PAIR_SIZE = 3

#: Largest page the u16 in-page offsets address: slot offsets, the free
#: lower bound, delta-record pair offsets and WAL change offsets.
MAX_PAGE_SIZE = 1 << 16

#: Upper bounds keeping the wire format compact: the record count must fit
#: the device OOB slots (<= 15 with a 128 B OOB) and the pair count is
#: encoded in the control byte's low nibble.
MAX_N = 15
MAX_M = 15


@dataclass(frozen=True)
class IpaScheme:
    """One N x M configuration.

    Attributes:
        n_records: N — delta-records the page's delta area can hold.
        m_bytes: M — maximum changed bytes captured by one delta-record.
    """

    n_records: int
    m_bytes: int

    def __post_init__(self) -> None:
        if self.n_records == 0 and self.m_bytes == 0:
            return  # the [0 x 0] disabled scheme
        if not 1 <= self.n_records <= MAX_N:
            raise ValueError(f"N must be in [1, {MAX_N}], got {self.n_records}")
        if not 1 <= self.m_bytes <= MAX_M:
            raise ValueError(f"M must be in [1, {MAX_M}], got {self.m_bytes}")

    # The derived sizes are read on every page access.  The scheme is
    # frozen, so each is computed once per instance: cached_property
    # stores into the instance __dict__ (which a frozen dataclass still
    # has), and __eq__/__hash__ stay field-based.
    @cached_property
    def enabled(self) -> bool:
        """False for the [0 x 0] traditional baseline."""
        return self.n_records > 0

    @cached_property
    def record_size(self) -> int:
        """Bytes of one delta-record: 1 + 3M + delta_metadata."""
        if not self.enabled:
            return 0
        return 1 + PAIR_SIZE * self.m_bytes + DELTA_METADATA_SIZE

    @cached_property
    def delta_area_size(self) -> int:
        """Bytes reserved at the end of every page: N x record_size."""
        return self.n_records * self.record_size

    @cached_property
    def tail_size(self) -> int:
        """Bytes from the delta area's first byte to the end of the page:
        delta area + footer (Figure 3).  The delta area of a page of
        ``page_size`` bytes starts at ``page_size - tail_size``; every
        module that places it (page, reconstruction, Scenario-2 image,
        trace replay) reads this one attribute."""
        return PAGE_FOOTER_SIZE + self.delta_area_size

    def __str__(self) -> str:
        return f"[{self.n_records}x{self.m_bytes}]"


#: The traditional baseline: no delta area, every eviction out-of-place.
#: Also the "IPA off" value of a NoFTL region (``create_region(ipa=...)``).
IPA_DISABLED = IpaScheme(n_records=0, m_bytes=0)

#: The configuration evaluated in the paper's Table 1.
SCHEME_2X4 = IpaScheme(n_records=2, m_bytes=4)
