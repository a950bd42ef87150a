"""Core Tracer behaviour: spans, nesting, counters, exporters, lifecycle."""

import json
import threading

import pytest

import repro.trace as trace
from repro.trace import Tracer, validate_trace_events


class TestSpans:
    def test_span_records_interval(self):
        t = Tracer()
        with t.span("work", cat="host", detail=1):
            pass
        (sp,) = t.spans
        assert sp.name == "work"
        assert sp.cat == "host"
        assert sp.args == {"detail": 1}
        assert sp.ts_us >= 0
        assert sp.dur_us >= 0

    def test_spans_nest_via_parent_id(self):
        t = Tracer()
        with t.span("outer") as outer:
            with t.span("inner") as inner:
                pass
        assert inner.parent_id == outer.id
        assert outer.parent_id is None

    def test_yielded_span_is_mutable(self):
        """Instrumentation attaches results that only exist post-run."""
        t = Tracer()
        with t.span("k") as sp:
            sp.args["threads_run"] = 64
        assert t.spans[0].args["threads_run"] == 64

    def test_default_track_is_thread_name(self):
        t = Tracer()
        with t.span("a"):
            pass
        assert t.spans[0].track == f"host:{threading.current_thread().name}"

    def test_on_track_override(self):
        t = Tracer()
        with t.on_track("stream:s1"):
            with t.span("a"):
                pass
        with t.span("b"):
            pass
        assert t.spans[0].track == "stream:s1"
        assert t.spans[1].track.startswith("host:")

    def test_add_span_retroactive(self):
        t = Tracer()
        sp = t.add_span("queued:x", "queue", "stream:s", 10.0, 5.0, {"n": 1})
        assert sp.ts_us == 10.0 and sp.dur_us == 5.0
        assert t.spans[0].args == {"n": 1}

    def test_thread_safety(self):
        t = Tracer()

        def worker(i):
            for _ in range(100):
                with t.span(f"w{i}"):
                    pass
                t.counter("ops")

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert len(t.spans) == 800
        assert t.counters["ops"] == 800

    def test_clear(self):
        t = Tracer()
        with t.span("a"):
            pass
        t.counter("c")
        t.prediction("k", total_s=1.0)
        t.clear()
        assert not t.spans and not t.counters and not t.predictions


class TestRecordsAndPredictions:
    def test_records_sorted_by_timestamp(self):
        t = Tracer()
        t.add_span("late", "host", "x", 100.0, 1.0)
        t.add_span("early", "host", "x", 1.0, 1.0)
        names = [r["name"] for r in t.to_records()]
        assert names == ["early", "late"]

    def test_prediction_joined_onto_matching_kernel_span(self):
        t = Tracer()
        t.prediction("saxpy", total_s=2.0, per_launch_s=1.0, launches=2)
        with t.span("kernel:saxpy", cat="kernel"):
            pass
        with t.span("kernel:other", cat="kernel"):
            pass
        recs = {r["name"]: r for r in t.to_records()}
        assert recs["kernel:saxpy"]["args"]["predicted_per_launch_s"] == 1.0
        assert "predicted_per_launch_s" not in recs["kernel:other"]["args"]
        pred = recs["predict:saxpy"]
        assert pred["cat"] == "prediction"
        assert pred["track"] == "perf-model"
        assert pred["dur_us"] == pytest.approx(2.0e6)


class TestChromeExport:
    def test_export_is_valid_and_loads(self, tmp_path):
        t = Tracer()
        with t.span("kernel:k", cat="kernel", engine="map"):
            pass
        t.counter("launches")
        path = t.export_chrome(str(tmp_path / "out.json"))
        events = json.loads((tmp_path / "out.json").read_text())
        validate_trace_events(events)
        phases = {e["ph"] for e in events}
        assert "X" in phases and "M" in phases and "C" in phases
        (kernel_ev,) = [e for e in events if e.get("cat") == "kernel"]
        assert kernel_ev["args"]["engine"] == "map"
        assert path.endswith("out.json")

    def test_track_metadata_events_name_tracks(self, tmp_path):
        t = Tracer()
        with t.on_track("stream:s7"):
            with t.span("exec:op", cat="stream"):
                pass
        t.export_chrome(str(tmp_path / "t.json"))
        events = json.loads((tmp_path / "t.json").read_text())
        metas = [e for e in events if e["ph"] == "M"]
        assert any(e["args"]["name"] == "stream:s7" for e in metas)

    @pytest.mark.parametrize("bad", [
        {"not": "a list"},
        [{"ph": "Z", "pid": 1, "tid": 1, "ts": 0}],
        [{"ph": "X", "pid": "x", "tid": 1, "ts": 0}],
        [{"ph": "X", "pid": 1, "tid": 1, "ts": -1}],
        [{"ph": "X", "pid": 1, "tid": 1, "ts": 0}],  # X without name/dur/args
    ])
    def test_validator_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            validate_trace_events(bad)


class TestLifecycle:
    def test_enable_disable_get(self):
        assert trace.get_tracer() is None
        t = trace.enable()
        assert trace.get_tracer() is t
        assert trace.disable() is t
        assert trace.get_tracer() is None

    def test_tracing_context_restores_previous(self):
        outer = trace.enable()
        with trace.tracing() as inner:
            assert trace.get_tracer() is inner
            assert inner is not outer
        assert trace.get_tracer() is outer
        trace.disable()

    def test_enable_existing_tracer_resumes(self):
        t = Tracer()
        with t.span("first"):
            pass
        with trace.tracing(t):
            with trace.get_tracer().span("second"):
                pass
        assert [s.name for s in t.spans] == ["first", "second"]

    def test_count_bumps_the_active_tracer_only(self):
        trace.count("ops")  # tracing off: nothing to count into
        with trace.tracing() as t:
            trace.count("ops")
            trace.count("ops", 2.5)
        trace.count("ops")
        assert t.counters == {"ops": 3.5}


class TestSummary:
    def test_empty_summary(self):
        assert "no trace records" in Tracer().summary()

    def test_summary_has_kernel_table_and_memcpy_rollup(self):
        t = Tracer()
        for _ in range(3):
            with t.span("kernel:saxpy", cat="kernel"):
                pass
        with t.span("ompx_memcpy", cat="memcpy", bytes=4096, direction="h2d"):
            pass
        text = t.summary()
        assert "saxpy" in text
        assert "3" in text  # the call count
        assert "Memcpy rollup" in text
        assert "h2d" in text
        assert "4.10 KB" in text
