"""The run recorder: exact counters, gauges, histograms and spans."""

import json

import pytest

from repro.collio.api import RunPipeline, run_collective_write
from repro.faults import RetryPolicy
from repro.obs import SPAN_CATEGORIES, spans_csv
from repro.sim.trace import DURATION_BUCKETS, Recorder, Span
from tests.golden.scenario import TELEMETRY, telemetry_specs
from tests.obs.conftest import traced_spec


class TestCountersAlwaysOn:
    def test_counters_bump_when_disabled(self):
        rec = Recorder()
        rec.inc("x")
        rec.inc("x", 3)
        assert rec.count("x") == 4
        assert rec.count("never") == 0 and "never" not in rec.counters
        assert not rec.spans

    def test_inc(self):
        rec = Recorder()
        rec.inc("x")
        rec.inc("x", 4)
        assert rec.count("x") == 5

    def test_of_category_and_clear(self):
        rec = Recorder(active=True)
        rec.inc("a")
        rec.inc("b", 2)
        assert (rec.count("a"), rec.count("b")) == (1, 2)  # one tally per category
        rec.clear()
        assert rec.count("a") == 0 and rec.count("b") == 0 and not rec.counters

    def test_counters_stay_exact_under_the_ring_buffer(self):
        rec = Recorder(active=True, max_records=2)
        for i in range(5):
            rec.end(rec.begin(float(i), "write", "io", rank=0), i + 0.5)
            rec.inc("io.write")
        assert rec.count("io.write") == 5
        assert [s.t0 for s in rec.spans] == [3.0, 4.0]

    def test_max_records_below_one_rejected(self):
        for bound in (0, -1):
            with pytest.raises(ValueError, match="max_records"):
                Recorder(max_records=bound)

    def test_clear(self):
        rec = Recorder(active=True)
        rec.inc("c")
        rec.set_gauge("g", 1.0)
        rec.observe("h", 0.5)
        rec.begin(0.0, "cycle", "algo.cycle", rank=0)  # left open: depth 1
        rec.clear()
        assert rec.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
        assert not rec.spans
        assert rec.begin(0.0, "cycle", "algo.cycle", rank=0).depth == 0


class TestGauge:
    def test_set_and_max(self):
        rec = Recorder()
        rec.set_gauge("g", 3.0)
        rec.max_gauge("g", 2.0)
        assert rec.gauges["g"] == 3.0
        rec.max_gauge("g", 7.5)
        assert rec.gauges["g"] == 7.5

    def test_running_max_starts_at_zero(self):
        rec = Recorder()
        rec.max_gauge("peak", 0)
        assert rec.gauges["peak"] == 0.0 and isinstance(rec.gauges["peak"], float)
        rec.max_gauge("peak", 4)
        assert rec.gauges["peak"] == 4


class TestHistogram:
    def test_bucketing_and_overflow(self):
        rec = Recorder()
        for v in (0.5, 1.0, 2.0, 50.0):
            rec.observe("h", v, boundaries=(1.0, 10.0))
        # <=1.0: {0.5, 1.0}; <=10.0: {2.0}; overflow: {50.0}
        h = rec.histograms["h"]
        assert h["counts"] == [2, 1, 1]
        assert h["count"] == 4
        assert h["sum"] == pytest.approx(53.5)

    def test_boundaries_must_increase(self):
        for bounds in ((1.0, 1.0), (2.0, 1.0), ()):
            with pytest.raises(ValueError, match="strictly increasing"):
                Recorder().observe("h", 0.5, boundaries=bounds)

    def test_default_buckets_are_the_duration_ladder(self):
        rec = Recorder()
        rec.observe("h", 1e-3)
        assert rec.histograms["h"]["boundaries"] == list(DURATION_BUCKETS)

    def test_boundary_mismatch_raises(self):
        rec = Recorder()
        rec.observe("h", 0.5, boundaries=(1.0, 2.0))
        with pytest.raises(ValueError, match="different boundaries"):
            rec.observe("h", 0.5, boundaries=(1.0, 3.0))


def test_snapshot_is_sorted_plain_data():
    rec = Recorder()
    rec.inc("z", 2)
    rec.inc("a", 3)
    rec.set_gauge("g", 1.5)
    rec.observe("h", 0.5, boundaries=(1.0,))
    snap = rec.snapshot()
    assert snap["counters"] == {"a": 3, "z": 2}
    assert list(snap["counters"]) == ["a", "z"]
    assert snap["gauges"] == {"g": 1.5}
    assert snap["histograms"]["h"] == {
        "boundaries": [1.0], "counts": [1, 0], "count": 1, "sum": 0.5,
    }
    json.dumps(snap)  # JSON-safe end to end
    snap["histograms"]["h"]["counts"][0] = 99  # a copy, not the live state
    assert rec.histograms["h"]["counts"] == [1, 0]


class TestSpan:
    def test_open_then_closed(self):
        s = Span("write", "io", rank=2, cycle=1, t0=1.0)
        assert not s.closed
        assert s.dur == 0.0
        s.t1 = 3.5
        assert s.closed
        assert s.dur == 2.5

    def test_overlap_with(self):
        a = Span("a", "io", t0=0.0, t1=2.0)
        b = Span("b", "comm", t0=1.0, t1=5.0)
        c = Span("c", "comm", t0=3.0, t1=4.0)
        assert a.overlap_with(b) == pytest.approx(1.0)
        assert b.overlap_with(a) == pytest.approx(1.0)
        assert a.overlap_with(c) == 0.0

    def test_overlap_with_open_span_is_zero(self):
        a = Span("a", "io", t0=0.0, t1=2.0)
        b = Span("b", "comm", t0=1.0)
        assert a.overlap_with(b) == 0.0


class TestSpans:
    def test_begin_end_records_span(self):
        rec = Recorder(active=True)
        span = rec.begin(1.0, "shuffle", "comm", rank=3, cycle=2, flow="async", bytes=64)
        rec.end(span, 4.0)
        assert list(rec.spans) == [span]
        assert (span.t0, span.t1) == (1.0, 4.0)
        assert span.attrs == {"bytes": 64}

    def test_inactive_recorder_is_noop(self):
        rec = Recorder()
        span = rec.begin(1.0, "shuffle", "comm", rank=3)
        assert span is None
        assert rec.end(span, 4.0) is None
        assert not rec.spans

    def test_sync_depth_tracks_nesting_per_rank(self):
        rec = Recorder(active=True)
        outer = rec.begin(0.0, "cycle", "algo.cycle", rank=0)
        inner = rec.begin(1.0, "write", "io.call", rank=0)
        other = rec.begin(1.0, "cycle", "algo.cycle", rank=1)
        assert (outer.depth, inner.depth, other.depth) == (0, 1, 0)
        rec.end(inner, 2.0)
        assert rec.begin(2.0, "shuffle_wait", "comm.call", rank=0).depth == 1

    def test_async_flow_does_not_touch_depth(self):
        rec = Recorder(active=True)
        a = rec.begin(0.0, "write", "io", rank=0, flow="async")
        sync = rec.begin(0.0, "cycle", "algo.cycle", rank=0)
        assert a.depth == 0
        assert sync.depth == 0

    def test_end_attempt_drops_open_spans(self):
        rec = Recorder(active=True, max_records=4)
        done = rec.begin(0.0, "write", "io", rank=0, flow="async")
        rec.end(done, 1.0)
        rec.begin(0.5, "shuffle", "comm", rank=1, flow="async")  # left open
        rec.end_attempt()
        assert list(rec.spans) == [done]
        assert rec.spans.maxlen == 4

    def test_max_records_ring_buffer_keeps_newest(self):
        rec = Recorder(active=True, max_records=3)
        spans = [rec.begin(float(i), f"s{i}", "io", rank=0) for i in range(6)]
        for s in spans:
            rec.end(s, s.t0 + 0.5)
        assert [s.name for s in rec.spans] == ["s3", "s4", "s5"]

    def test_start_attempt_moves_origin_and_restarts_nesting(self):
        rec = Recorder(active=True)
        rec.begin(0.0, "algo", "algo", rank=0)  # an aborted attempt's open span
        rec.start_attempt(0.1)
        span = rec.end(rec.begin(0.2, "algo", "algo", rank=0), 0.3)
        assert span.depth == 0
        assert (span.t0, span.t1) == (0.2 + 0.1, 0.3 + 0.1)


def test_span_categories_are_distinct():
    assert len(set(SPAN_CATEGORIES)) == len(SPAN_CATEGORIES)


def test_switching_on_after_construction_records_every_span():
    """``active`` is the one flag: set late, it guards every call site."""
    spec = traced_spec("write_overlap", retry=RetryPolicy())

    def spans(run: RunPipeline):
        return spans_csv(run.run().spans)

    late = RunPipeline(spec.replace(trace=False), spec.algorithm, spec.resolved_config())
    late.recorder.active = True
    on = RunPipeline(spec, spec.algorithm, spec.resolved_config())
    assert spans(late) == spans(on)


def test_every_recorded_category_is_listed():
    spec = telemetry_specs()[TELEMETRY + "bitrot_cluster/laden"]
    categories = {s.category for s in run_collective_write(spec).spans}
    assert {"integrity", "intranode"} <= categories
    assert categories <= set(SPAN_CATEGORIES)
