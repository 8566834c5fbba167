"""Structured event tracing: spans stamped with the *simulated* clock.

A :class:`Span` follows one logical operation across the stack:

    txn -> evict -> host_write -> ftl_write -> gc_collect -> gc_erase
                                                          -> chip_erase

Spans nest via an explicit per-tracer stack (the simulator is
single-threaded), so a GC erase triggered deep inside a device write is
*causally attributed* to the buffer eviction, host write and transaction
that paid for it — which is what turns the tail-latency experiment's
"~5x p99" from an observation into an explanation.

Finished spans land in a bounded in-memory ring buffer that drops its
oldest spans when full and counts them in :attr:`Tracer.dropped`; a run
artefact carries that count as ``spans_dropped``.  The disabled path is a shared
:data:`NULL_TRACER` whose ``enabled`` flag lets hot call sites skip all
argument construction with a single attribute test::

    tr = self.tracer
    if tr.enabled:
        with tr.span("gc_collect", free_before=n):
            ...

Span taxonomy (see ``docs/observability.md`` for the full table):

=============  ==========================================================
``txn``        one transaction (attrs: ``type``, ``txn``)
``evict``      buffer-pool eviction of a dirty/clean frame
``host_write`` one dirty-page flush reaching the device (attrs: ``lba``,
               ``policy``)
``page_fetch`` buffer miss serviced from the device
``ftl_write``  device-side handling of one host page write
``write_delta`` one write_delta command (leaf)
``gc_collect`` one GC activation (pool refill)
``gc_erase``   one victim reclaim: migrations + inline erase
``chip_erase``  one physical block erase (leaf)
``channel_wait`` host stall on a full channel queue / busy die (leaf)
``bus_xfer`` / ``channel_op`` / ``channel_read``  multi-channel device
               events, recorded only with ``trace_channel_ops`` (leaf)
=============  ==========================================================
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER", "TRACE_CAPACITY"]

#: Ring-buffer size for finished spans.
TRACE_CAPACITY = 200_000


class Span:
    """One traced operation: a named interval of simulated time."""

    __slots__ = ("name", "span_id", "parent_id", "txn", "start_us", "end_us", "attrs")

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        txn: Optional[int],
        start_us: float,
        attrs: dict,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        #: Transaction id in whose scope this span ran (ambient context).
        self.txn = txn
        self.start_us = start_us
        self.end_us = start_us
        self.attrs = attrs

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us

    def set(self, **attrs) -> "Span":
        """Attach/overwrite attributes mid-span."""
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "txn": self.txn,
            "start_us": round(self.start_us, 3),
            "dur_us": round(self.duration_us, 3),
        }
        if self.attrs:
            out["attrs"] = self.attrs
        return out

    def __repr__(self) -> str:  # diagnostics only
        return (
            f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id}, "
            f"txn={self.txn}, dur={self.duration_us:.1f}us)"
        )


class Tracer:
    """Span factory + ring buffer + ambient transaction context.

    Args:
        clock: Anything with a ``now_us`` attribute (a
            :class:`~repro.flash.latency.SimClock`).  May be bound later
            via :meth:`bind_clock` — spans started without a clock are
            stamped 0.
        capacity: Ring-buffer size for finished spans; the oldest are
            dropped and counted in :attr:`dropped`.
    """

    enabled = True
    #: Per-channel scheduler events on a multi-channel device;
    #: ``Observation.create`` sets it per instance from
    #: :class:`~repro.obs.ObserveConfig`.
    trace_channel_ops = False

    def __init__(self, clock=None, capacity: int = TRACE_CAPACITY) -> None:
        self.clock = clock
        self.spans: deque[Span] = deque(maxlen=capacity)
        self.dropped = 0
        self._stack: list[Span] = []
        self._next_id = 1
        self._txn: Optional[int] = None

    def bind_clock(self, clock) -> None:
        self.clock = clock

    # ------------------------------------------------------------------ #
    # Span lifecycle
    # ------------------------------------------------------------------ #

    def _now(self) -> float:
        clock = self.clock
        return clock.now_us if clock is not None else 0.0

    def start(self, name: str, **attrs) -> Span:
        """Open a span as the child of the innermost open span."""
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(name, self._next_id, parent, self._txn, self._now(), attrs)
        self._next_id += 1
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        """Close a span (must be the innermost open one)."""
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(
                f"span {span.name!r} is not the innermost open span"
            )
        self._stack.pop()
        span.end_us = self._now()
        self._finish(span)

    def span(self, name: str, **attrs) -> "_SpanCtx":
        """Context manager: ``with tracer.span("gc_erase", block=7) as s:``"""
        return _SpanCtx(self, self.start(name, **attrs))

    def record(self, name: str, dur_us: float = 0.0, **attrs) -> Span:
        """Leaf event: a completed span ending *now*, lasting ``dur_us``.

        Used for physical chip operations whose latency is known after
        the fact (the clock has already been advanced by the operation).
        """
        now = self._now()
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(name, self._next_id, parent, self._txn, now - dur_us, attrs)
        self._next_id += 1
        span.end_us = now
        self._finish(span)
        return span

    def record_at(
        self, name: str, start_us: float, dur_us: float = 0.0, **attrs
    ) -> Span:
        """Leaf event with an *explicit* start time.

        Unlike :meth:`record` (which back-dates from now), this stamps
        an interval the caller has scheduled itself — the multi-channel
        device uses it for array pulses that occupy a channel in the
        host clock's *future*.
        """
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(name, self._next_id, parent, self._txn, start_us, attrs)
        self._next_id += 1
        span.end_us = start_us + dur_us
        self._finish(span)
        return span

    def _finish(self, span: Span) -> None:
        if len(self.spans) == self.spans.maxlen:
            self.dropped += 1
        self.spans.append(span)

    # ------------------------------------------------------------------ #
    # Ambient transaction context
    # ------------------------------------------------------------------ #

    def begin_txn(self, txn_id: int, txn_type: str) -> Span:
        """Open a transaction span and set the ambient txn id."""
        span = self.start("txn", type=txn_type)
        span.txn = txn_id
        self._txn = txn_id
        return span

    def end_txn(self, span: Span) -> None:
        """Close the transaction span and clear the ambient txn id."""
        self._txn = None
        self.end(span)

    @property
    def current_txn(self) -> Optional[int]:
        return self._txn

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #

    def finished(self) -> list[Span]:
        """Finished spans currently in the ring buffer (oldest first)."""
        return list(self.spans)

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


class _SpanCtx:
    """Tiny context manager pairing ``start``/``end`` (no generator cost)."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: Tracer, span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._span.attrs["error"] = exc_type.__name__
        self._tracer.end(self._span)


class _NullSpan:
    """Inert span returned by the null tracer."""

    __slots__ = ()
    name = "null"
    span_id = 0
    parent_id = None
    txn = None
    start_us = 0.0
    end_us = 0.0
    duration_us = 0.0
    attrs: dict = {}

    def set(self, **attrs) -> "_NullSpan":
        return self


class _NullCtx:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()
_NULL_CTX = _NullCtx()


class NullTracer:
    """Disabled tracer: every operation is a no-op.

    Instrumented classes default their ``tracer`` attribute to
    :data:`NULL_TRACER`; hot paths additionally guard on ``enabled`` so
    the disabled cost is one attribute load and a truth test.
    """

    enabled = False
    trace_channel_ops = False
    clock = None
    dropped = 0

    def bind_clock(self, clock) -> None:
        pass

    def start(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def end(self, span) -> None:
        pass

    def span(self, name: str, **attrs) -> _NullCtx:
        return _NULL_CTX

    def record(self, name: str, dur_us: float = 0.0, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def record_at(
        self, name: str, start_us: float, dur_us: float = 0.0, **attrs
    ) -> _NullSpan:
        return _NULL_SPAN

    def begin_txn(self, txn_id: int, txn_type: str) -> _NullSpan:
        return _NULL_SPAN

    def end_txn(self, span) -> None:
        pass

    current_txn = None

    def finished(self) -> list:
        return []

    def by_name(self, name: str) -> list:
        return []


NULL_TRACER = NullTracer()


# ---------------------------------------------------------------------- #
# Trace analysis helpers (pure functions over span dicts / Span objects)
# ---------------------------------------------------------------------- #

def spans_to_dicts(spans: Iterable) -> list[dict]:
    """Normalize Span objects or already-parsed dicts to dicts."""
    out = []
    for span in spans:
        out.append(span if isinstance(span, dict) else span.to_dict())
    return out


def attribute_gc_erases(spans: Iterable) -> list[dict]:
    """Walk each ``gc_erase`` span's parent chain to its host write / txn.

    Returns one dict per gc_erase span::

        {"span": <dict>, "host_write": <dict|None>, "txn": <int|None>,
         "stall_us": <float>}

    ``txn`` comes from the ambient id stamped on the span (and equals the
    ancestor ``txn`` span's id); ``host_write`` is the nearest enclosing
    host-write span, None for erases outside any host write (e.g. a
    final checkpoint flush).
    """
    records = spans_to_dicts(spans)
    by_id = {r["id"]: r for r in records}
    out = []
    for record in records:
        if record["name"] != "gc_erase":
            continue
        host_write = None
        node = record
        while node is not None:
            if node["name"] == "host_write":
                host_write = node
                break
            parent = node.get("parent")
            node = by_id.get(parent) if parent is not None else None
        out.append(
            {
                "span": record,
                "host_write": host_write,
                "txn": record.get("txn"),
                "stall_us": record.get("dur_us", 0.0),
            }
        )
    return out


def gc_attribution_rate(spans: Iterable) -> float:
    """Fraction of gc_erase spans attributed to a txn-bearing host write."""
    attributed = attribute_gc_erases(spans)
    if not attributed:
        return 1.0
    good = sum(
        1
        for a in attributed
        if a["host_write"] is not None and a["txn"] is not None
    )
    return good / len(attributed)
