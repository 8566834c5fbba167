"""Write-amplification accounting (paper Section 1 and Figure 1).

Two amplifications matter:

* **DBMS write-amplification** — bytes shipped to the device divided by
  net bytes actually modified ("for 100 modified bytes in total the DBMS
  writes out the whole 8KB database pages ... about 80x").  IPA's
  ``write_delta`` attacks this directly.
* **Device write-amplification** — bytes physically programmed divided
  by bytes the host sent (GC migrations are the culprit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.bench.harness import ExperimentResult


@dataclass
class WriteAmplificationReport:
    """Both write-amplification factors for one run."""

    dbms_wa: float  # host bytes written / net bytes modified
    device_wa: float  # flash bytes programmed / host bytes written
    end_to_end_wa: float  # flash bytes programmed / net bytes modified
    host_bytes_written: int
    net_bytes_modified: int


def write_amplification(
    result: ExperimentResult,
    flash_bytes_programmed: int | None = None,
) -> WriteAmplificationReport:
    """Compute WA factors from an experiment result.

    Args:
        result: A finished experiment.
        flash_bytes_programmed: Physical bytes programmed during the run;
            when None, host bytes + migration traffic are used as a
            conservative stand-in.
    """
    net = max(result.net_bytes_updated, 1)
    host = result.host_bytes_written
    if flash_bytes_programmed is None:
        page_size = (
            host // max(result.host_page_writes, 1)
            if result.host_page_writes
            else 0
        )
        flash_bytes_programmed = host + result.gc_page_migrations * page_size
    return WriteAmplificationReport(
        dbms_wa=host / net,
        device_wa=flash_bytes_programmed / max(host, 1),
        end_to_end_wa=flash_bytes_programmed / net,
        host_bytes_written=host,
        net_bytes_modified=result.net_bytes_updated,
    )
