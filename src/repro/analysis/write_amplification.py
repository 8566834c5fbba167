"""Write-amplification accounting (paper Section 1 and Figure 1).

Two amplifications matter:

* **DBMS write-amplification** — bytes shipped to the device divided by
  net bytes actually modified ("for 100 modified bytes in total the DBMS
  writes out the whole 8KB database pages ... about 80x").  IPA's
  ``write_delta`` attacks this directly.
* **Device write-amplification** — bytes physically programmed divided
  by bytes the host sent (GC migrations are the culprit), both measured
  over the run.
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


def write_amplification(result: ExperimentResult) -> WriteAmplificationReport:
    """Compute WA factors from an experiment result's measured intervals:
    device WA is ``flash.bytes_programmed / device.host_bytes_written``."""
    net = max(result.storage.net_bytes_updated, 1)
    host = result.device.host_bytes_written
    programmed = result.flash.bytes_programmed
    return WriteAmplificationReport(
        dbms_wa=host / net,
        device_wa=programmed / max(host, 1),
        end_to_end_wa=programmed / net,
        host_bytes_written=host,
        net_bytes_modified=result.storage.net_bytes_updated,
    )
