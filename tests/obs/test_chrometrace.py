"""Chrome-trace exporter: track routing, metadata, and file format."""

from __future__ import annotations

import json

from repro.obs.chrometrace import spans_to_trace_events, write_chrome_trace
from repro.obs.trace import Span, Tracer


def _span(name, start_us=0.0, dur_us=10.0, txn=None, **attrs):
    span = Span(name, 1, None, txn, start_us, attrs)
    span.end_us = start_us + dur_us
    return span.to_dict()


def _complete_events(events):
    return [e for e in events if e["ph"] == "X"]


class TestTrackRouting:
    def test_host_spans_on_tid_zero(self):
        (event,) = _complete_events(
            spans_to_trace_events([_span("host_write", attrs_lba=4)])
        )
        assert event["tid"] == 0
        assert event["name"] == "host_write"

    def test_bus_and_channel_tids(self):
        events = _complete_events(
            spans_to_trace_events(
                [
                    _span("bus_xfer", channel=3),
                    _span("channel_op", channel=0),
                    _span("channel_op", channel=3),
                    _span("channel_read", channel=1),
                ]
            )
        )
        assert [e["tid"] for e in events] == [1, 2, 5, 3]

    def test_channel_event_without_channel_attr_falls_to_host(self):
        (event,) = _complete_events(
            spans_to_trace_events([_span("channel_op")])
        )
        assert event["tid"] == 0

    def test_channel_wait_stays_on_host_track(self):
        (event,) = _complete_events(
            spans_to_trace_events([_span("channel_wait", channel=2)])
        )
        assert event["tid"] == 0


class TestEventShape:
    def test_complete_event_fields(self):
        (event,) = _complete_events(
            spans_to_trace_events(
                [_span("txn", start_us=100.25, dur_us=50.5, txn=7, type="tpcb")]
            )
        )
        assert event["ph"] == "X"
        assert event["pid"] == 1
        assert event["ts"] == 100.25
        assert event["dur"] == 50.5
        assert event["args"]["type"] == "tpcb"
        assert event["args"]["txn"] == 7

    def test_metadata_names_every_populated_track(self):
        events = spans_to_trace_events(
            [_span("host_write"), _span("channel_op", channel=2)]
        )
        meta = {
            (e["tid"], e["args"]["name"])
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert meta == {(0, "host"), (4, "channel 2")}
        assert any(
            e["name"] == "process_name"
            and e["args"]["name"] == "repro simulator"
            for e in events
        )


class TestFileFormat:
    def test_write_round_trips_as_json(self, tmp_path):
        tracer = Tracer()
        with tracer.span("txn"):
            tracer.record("chip_erase", dur_us=2_000.0)
        tracer.record_at("channel_op", 500.0, 100.0, channel=1)
        path = tmp_path / "trace.json"
        count = write_chrome_trace(
            str(path), [span.to_dict() for span in tracer.finished()]
        )
        trace = json.loads(path.read_text())
        assert set(trace) == {"traceEvents"}
        assert len(trace["traceEvents"]) == count
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert {"txn", "chip_erase", "channel_op"} <= names
        scheduled = next(
            e for e in trace["traceEvents"] if e["name"] == "channel_op"
        )
        assert scheduled["ts"] == 500.0
        assert scheduled["dur"] == 100.0
        assert scheduled["tid"] == 3
