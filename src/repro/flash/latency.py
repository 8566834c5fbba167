"""Simulated time: a monotonic clock plus per-operation latency tables.

The simulator is single-threaded and event-free: every Flash operation
*advances* the shared :class:`SimClock` by its latency.  Transactional
throughput in the experiments is transactions divided by simulated seconds,
so the latency table is what turns operation counts (fewer erases, fewer
migrations) into the Table-1 throughput improvements.

Latencies follow datasheet-typical values for the MLC parts on the OpenSSD
Jasmine board; pseudo-SLC (LSB-only) programming is substantially faster
than full-MLC programming, which is itself part of why the pSLC column of
Table 1 beats odd-MLC.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

_INF = float("inf")


def _check_costs(model: object) -> None:
    """Every field of a cost model is finite and >= 0, or ValueError.

    A NaN or infinite cost would poison the simulated clock silently
    (every later time and TPS NaN), and a negative one would fail far
    from its cause — or, where a charge is inlined, not at all.
    """
    for name, value in asdict(model).items():
        if not 0.0 <= value < _INF:
            raise ValueError(
                f"{type(model).__name__}.{name} must be finite and >= 0, "
                f"got {value!r}"
            )


class SimClock:
    """Monotonic simulated clock measured in microseconds.

    Time is attributed to categories ("read", "program", "erase", "bus",
    "host", ...) so a run's throughput difference can be explained as a
    time-budget shift — e.g. IPA converting erase/migration time into
    extra transactions.

    The flash chip's kernel charges ``_now_us`` and ``breakdown_us``
    directly, with exactly the float additions of :meth:`advance` in
    operation order (float addition is not associative: the golden tests
    compare ``repr(now_us)``, so the order is part of the contract).
    """

    def __init__(self) -> None:
        self._now_us: float = 0.0
        self.breakdown_us: dict[str, float] = {}

    @property
    def now_us(self) -> float:
        """Current simulated time in microseconds."""
        return self._now_us

    @property
    def now_s(self) -> float:
        """Current simulated time in seconds."""
        return self._now_us / 1e6

    def advance(self, micros: float, category: str = "other") -> None:
        """Advance the clock by ``micros`` microseconds (finite, >= 0)."""
        if not 0.0 <= micros < _INF:
            raise ValueError(
                f"cannot advance clock by {micros!r} us: the time must be "
                f"finite and >= 0"
            )
        self._now_us += micros
        self.breakdown_us[category] = (
            self.breakdown_us.get(category, 0.0) + micros
        )

    def reset(self) -> None:
        """Reset simulated time to zero (between experiment phases)."""
        self._now_us = 0.0
        self.breakdown_us = {}


@dataclass(frozen=True)
class LatencyModel:
    """Per-operation latencies in microseconds.

    Attributes:
        read_us: Page read (cell array -> page register).
        program_lsb_us: Program of an SLC page or an MLC LSB page.
        program_msb_us: Program of an MLC MSB page (slower: finer ISPP steps).
        reprogram_us: In-place append (partial reprogram of a page).  ISPP
            only has to raise the cells of the appended region, so this is
            close to an LSB program.
        erase_us: Block erase.
        bus_us_per_byte: Transfer time per byte over the host interface.
            512 MB/s NAND/host bus ~= 0.002 us per byte.
    """

    read_us: float = 75.0
    program_lsb_us: float = 400.0
    program_msb_us: float = 1300.0
    reprogram_us: float = 420.0
    erase_us: float = 3500.0
    bus_us_per_byte: float = 0.002

    def __post_init__(self) -> None:
        _check_costs(self)

    def transfer_us(self, nbytes: int) -> float:
        """Bus time to move ``nbytes`` between host and device."""
        return nbytes * self.bus_us_per_byte


#: Datasheet-flavoured default used by all experiments.
DEFAULT_LATENCY = LatencyModel()


@dataclass(frozen=True)
class HostCostModel:
    """CPU-side costs charged by the workload driver, in microseconds.

    The paper's throughput gains come from the device, but transactions
    also spend host CPU time; charging a small fixed cost per transaction
    and per buffer operation keeps simulated TPS in a realistic range and
    stops device savings from being infinitely leveraged.

    Every field is checked on construction (finite, >= 0) and frozen
    after it: the storage manager charges ``per_buffer_hit_us`` and
    ``ipa_tracking_us``, and a transaction's commit
    ``per_transaction_us``, straight onto the clock, past
    :meth:`SimClock.advance`'s check.
    """

    per_transaction_us: float = 35.0
    per_buffer_hit_us: float = 1.0
    ipa_tracking_us: float = 0.4  # paper: "min. computational overhead"

    def __post_init__(self) -> None:
        _check_costs(self)
