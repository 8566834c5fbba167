"""Span tracing: nesting, ambient txn context, attribution, span dicts."""

import json

import pytest

from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.latency import SimClock
from repro.ftl.page_mapping import PageMappingFtl
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    attribute_gc_erases,
    gc_attribution_rate,
)


def make_tracer(**kwargs):
    clock = SimClock()
    return Tracer(clock=clock, **kwargs), clock


class TestSpanLifecycle:
    def test_nesting_sets_parents(self):
        tracer, _ = make_tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert [s.name for s in tracer.finished()] == ["inner", "outer"]

    def test_durations_from_sim_clock(self):
        tracer, clock = make_tracer()
        with tracer.span("op") as span:
            clock.advance(250.0)
        assert span.duration_us == pytest.approx(250.0)
        assert span.start_us == pytest.approx(0.0)

    def test_end_wrong_span_raises(self):
        tracer, _ = make_tracer()
        outer = tracer.start("outer")
        tracer.start("inner")
        with pytest.raises(RuntimeError):
            tracer.end(outer)

    def test_exception_stamps_error_attr(self):
        tracer, _ = make_tracer()
        with pytest.raises(KeyError):
            with tracer.span("op"):
                raise KeyError("boom")
        (span,) = tracer.finished()
        assert span.attrs["error"] == "KeyError"

    def test_record_is_retroactive_leaf(self):
        tracer, clock = make_tracer()
        clock.advance(100.0)
        with tracer.span("parent"):
            span = tracer.record("chip_erase", dur_us=40.0, block=3)
        assert span.start_us == pytest.approx(60.0)
        assert span.end_us == pytest.approx(100.0)
        assert span.attrs["block"] == 3
        assert span.parent_id is not None

    def test_ring_buffer_drops_oldest(self):
        tracer, _ = make_tracer(capacity=3)
        for i in range(5):
            tracer.record(f"ev{i}")
        assert [s.name for s in tracer.finished()] == ["ev2", "ev3", "ev4"]
        assert tracer.dropped == 2


class TestTxnContext:
    def test_ambient_txn_stamps_children(self):
        tracer, _ = make_tracer()
        txn_span = tracer.begin_txn(42, "tpcb")
        with tracer.span("host_write") as hw:
            pass
        tracer.end_txn(txn_span)
        with tracer.span("orphan") as orphan:
            pass
        assert txn_span.txn == 42
        assert hw.txn == 42
        assert orphan.txn is None
        assert tracer.current_txn is None


class TestAttribution:
    def test_synthetic_chain(self):
        tracer, clock = make_tracer()
        txn = tracer.begin_txn(7, "tpcb")
        with tracer.span("evict", lba=5):
            with tracer.span("host_write", lba=5):
                with tracer.span("ftl_write", lba=5):
                    with tracer.span("gc_collect"):
                        with tracer.span("gc_erase", victim=2):
                            clock.advance(2000.0)
        tracer.end_txn(txn)
        (rec,) = attribute_gc_erases(tracer.finished())
        assert rec["host_write"]["attrs"]["lba"] == 5
        assert rec["txn"] == 7
        assert rec["stall_us"] == pytest.approx(2000.0)
        assert gc_attribution_rate(tracer.finished()) == 1.0

    def test_unattributed_erase(self):
        tracer, _ = make_tracer()
        with tracer.span("gc_erase"):  # e.g. checkpoint-time reclaim
            pass
        (rec,) = attribute_gc_erases(tracer.finished())
        assert rec["host_write"] is None
        assert rec["txn"] is None
        assert gc_attribution_rate(tracer.finished()) == 0.0

    def test_no_erases_counts_as_fully_attributed(self):
        tracer, _ = make_tracer()
        tracer.record("host_write")
        assert gc_attribution_rate(tracer.finished()) == 1.0

    def test_real_ftl_gc_is_attributed(self):
        """Force inline GC on a tiny FTL; every erase must chain to a
        host_write carrying the ambient transaction id."""
        geo = FlashGeometry(page_size=512, oob_size=64, pages_per_block=8,
                            blocks=16)
        ftl = PageMappingFtl(FlashChip(geo), over_provisioning=0.25)
        tracer = Tracer(clock=ftl.chip.clock)
        ftl.tracer = tracer
        ftl.chip.tracer = tracer
        payload = b"\xcd" * 64
        txn_id = 0
        for round_no in range(6):  # overwrite everything repeatedly
            for lba in range(ftl.logical_pages):
                txn_id += 1
                txn = tracer.begin_txn(txn_id, "synthetic")
                with tracer.span("host_write", lba=lba):
                    ftl.write_page(lba, payload)
                tracer.end_txn(txn)
        erases = tracer.by_name("gc_erase")
        assert erases, "workload never triggered GC; shrink the geometry"
        assert gc_attribution_rate(tracer.finished()) == 1.0
        # chip-level erases appear as leaf children of the gc_erase spans
        erase_ids = {s.span_id for s in erases}
        chip_erases = tracer.by_name("chip_erase")
        assert chip_erases
        assert all(s.parent_id in erase_ids for s in chip_erases)


class TestArtefactSpans:
    def test_attribution_works_on_loaded_dicts(self):
        # A run artefact stores spans as dicts and goes through JSON;
        # attribution must give the same answer on what comes back.
        tracer = Tracer(clock=SimClock())
        txn = tracer.begin_txn(3, "t")
        with tracer.span("host_write"):
            with tracer.span("gc_erase"):
                pass
        tracer.end_txn(txn)
        loaded = json.loads(
            json.dumps([span.to_dict() for span in tracer.finished()])
        )
        assert gc_attribution_rate(loaded) == 1.0
        (record,) = attribute_gc_erases(loaded)
        assert record["txn"] == 3
        assert record["host_write"]["name"] == "host_write"


class TestNullTracer:
    def test_everything_is_inert(self):
        null = NULL_TRACER
        assert isinstance(null, NullTracer)
        assert not null.enabled
        with null.span("x", a=1) as span:
            span.set(b=2)
        null.record("y", dur_us=5.0)
        assert null.begin_txn(1, "t") is null.start("z")
        null.end_txn(None)
        assert null.finished() == []
        assert null.by_name("x") == []
        assert null.dropped == 0
