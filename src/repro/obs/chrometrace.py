"""Chrome-trace / Perfetto timeline exporter.

Renders a traced run as a Trace Event Format JSON file —
``python -m repro obs timeline out.json`` — loadable in
``chrome://tracing`` or https://ui.perfetto.dev.  The simulated
microsecond clock maps directly onto the format's ``ts``/``dur``
microseconds, so no scaling is involved.

Track layout (one process, one thread per track):

========  ==============================================================
tid 0     host — the span stack (txn / evict / host_write / ftl_write /
          gc_* / chip_* / channel_wait), nested by start/duration
tid 1     flash bus — ``bus_xfer`` transfer events
tid 2+c   channel ``c`` — ``channel_op`` array pulses (programs,
          reprograms, erases; possibly scheduled in the host's future)
          and ``channel_read`` senses
========  ==============================================================

Channel events exist only when the run traced with
``ObserveConfig(trace_channel_ops=True)`` on a multi-channel device;
the host track alone renders for single-chip runs.
"""

from __future__ import annotations

import json
from typing import Iterable

__all__ = [
    "spans_to_trace_events",
    "write_chrome_trace",
    "main",
]

#: Synthetic pid for the single simulated process.
_PID = 1

#: tids of the fixed tracks; channel ``c`` renders as ``_TID_CHANNEL0 + c``.
_TID_HOST = 0
_TID_BUS = 1
_TID_CHANNEL0 = 2

#: Span names that belong to device tracks rather than the host stack.
_BUS_NAMES = frozenset({"bus_xfer"})
CHANNEL_NAMES = frozenset({"channel_op", "channel_read"})


def _tid_of(span) -> int:
    name = span.name
    if name in _BUS_NAMES:
        return _TID_BUS
    if name in CHANNEL_NAMES:
        channel = span.attrs.get("channel")
        if isinstance(channel, int) and channel >= 0:
            return _TID_CHANNEL0 + channel
    return _TID_HOST


def _metadata_events(tids: set[int]) -> list[dict]:
    """``ph:"M"`` process/thread naming so the viewer labels the tracks."""
    events = [
        {
            "ph": "M", "pid": _PID, "tid": _TID_HOST,
            "name": "process_name", "args": {"name": "repro simulator"},
        }
    ]
    for tid in sorted(tids):
        if tid == _TID_HOST:
            label = "host"
        elif tid == _TID_BUS:
            label = "flash bus"
        else:
            label = f"channel {tid - _TID_CHANNEL0}"
        events.append(
            {
                "ph": "M", "pid": _PID, "tid": tid,
                "name": "thread_name", "args": {"name": label},
            }
        )
    return events


def spans_to_trace_events(spans: Iterable) -> list[dict]:
    """Convert finished :class:`~repro.obs.trace.Span` objects to events.

    Every span becomes one complete event (``ph:"X"``); the viewer
    reconstructs nesting on each track from start/duration overlap, so
    the tracer's parent links need not be emitted.
    """
    events: list[dict] = []
    tids: set[int] = set()
    for span in spans:
        tid = _tid_of(span)
        tids.add(tid)
        args = dict(span.attrs)
        if span.txn is not None:
            args["txn"] = span.txn
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "pid": _PID,
                "tid": tid,
                "ts": round(span.start_us, 3),
                "dur": round(span.duration_us, 3),
                "args": args,
            }
        )
    return _metadata_events(tids) + events


def write_chrome_trace(path: str, spans: Iterable) -> int:
    """Write ``{"traceEvents": [...]}`` to ``path``; returns event count."""
    events = spans_to_trace_events(spans)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events}, fh)
    return len(events)

