"""Unit tests for the span tracing layer (:mod:`repro.obs.trace`)."""

import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.trace import (
    NOOP_SPAN,
    TRACE,
    Tracer,
    traced,
    validate_chrome_trace,
)


def make_tracer() -> Tracer:
    tracer = Tracer()
    tracer.enable()
    return tracer


class TestSpanBasics:
    def test_nesting_records_parent_links(self):
        tracer = make_tracer()
        with tracer.span("outer", tier="full"):
            with tracer.span("inner"):
                pass
            with tracer.span("sibling"):
                pass
        names = [e.name for e in tracer.events]
        assert names == ["outer", "inner", "sibling"]
        assert tracer.events[0].parent == -1
        assert tracer.events[1].parent == 0
        assert tracer.events[2].parent == 0
        assert tracer.events[0].tags == {"tier": "full"}

    def test_mid_span_tagging(self):
        tracer = make_tracer()
        with tracer.span("wave") as span:
            span.tag(width=17)
        assert tracer.events[0].tags == {"width": 17}

    def test_instant_is_zero_duration(self):
        tracer = make_tracer()
        with tracer.span("campaign"):
            tracer.instant("fuzz.tick", case="seed3")
        tick = tracer.events[1]
        assert tick.start == tick.end
        assert tick.parent == 0

    def test_out_of_order_close_unwinds(self):
        # A span handle closed from a different frame must not corrupt
        # the stack: closing the outer span force-closes the stack up
        # to and including it.
        tracer = make_tracer()
        outer = tracer.span("outer").__enter__()
        tracer.span("inner").__enter__()  # never explicitly closed
        outer.__exit__(None, None, None)
        with tracer.span("after"):
            pass
        assert tracer.events[2].name == "after"
        assert tracer.events[2].parent == -1

    def test_exception_still_closes_span(self):
        tracer = make_tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert tracer.events[0].end is not None
        assert tracer.events[0].tags == {"error": "RuntimeError"}

    def test_capture_clears_enables_and_disables(self):
        with TRACE.capture():
            assert TRACE.enabled
            with TRACE.span("captured"):
                pass
        assert not TRACE.enabled
        assert [e.name for e in TRACE.events] == ["captured"]
        TRACE.clear()

    def test_traced_decorator(self):
        @traced("decorated", kind="unit")
        def work(x):
            return x + 1

        with TRACE.capture():
            assert work(1) == 2
        assert TRACE.events[0].name == "decorated"
        assert TRACE.events[0].tags == {"kind": "unit"}
        TRACE.clear()
        # Disabled: a plain call, nothing recorded.
        assert work(2) == 3
        assert TRACE.events == []

    def test_render_tree_indents_children(self):
        tracer = make_tracer()
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        tree = tracer.render_tree()
        lines = tree.splitlines()
        assert lines[0].startswith("root")
        assert lines[1].startswith("  child")


class TestSessionSpans:
    def test_update_and_query_cover_every_layer(self):
        from repro.service import AnalysisSession

        session = AnalysisSession.from_source(
            "def main() {\n  var x;\n  output(x);\n  return 0;\n}\n"
        )
        with TRACE.capture():
            session.update("main", session.function_text("main"))
            session.query_sites()
            names = [event.name for event in TRACE.events]
        TRACE.clear()
        for name in ("ir.parse", "opt_pipeline", "verify", "service.query"):
            assert name in names, name


class TestSpanCounters:
    """The layer that computes a count tags its span with it, so one
    trace holds both time and work."""

    SOURCE = (
        "def stash(p, v) { *p = v; return 0; }\n"
        "def main() {\n  var u;\n  var cell = malloc(1);\n"
        "  stash(cell, u);\n  if (*cell) { output(1); }\n  return 0;\n}\n"
    )

    def test_counting_layers_tag_their_spans(self):
        from repro.api import analyze

        with TRACE.capture():
            analysis = analyze(source=self.SOURCE, name="counters")
            spans = [(e.name, e.tags) for e in TRACE.events]
        TRACE.clear()
        builds = [tags for name, tags in spans if name == "vfg.build"]
        assert len(builds) == 2  # TL and the shared TL+AT graph
        for tags in builds:
            assert type(tags["nodes"]) is int and tags["nodes"] > 0
            assert type(tags["edges"]) is int and tags["edges"] > 0
        plans = {
            tags["config"]: tags
            for name, tags in spans
            if name == "instrument"
        }
        assert set(plans) == set(analysis.results)
        for config, tags in plans.items():
            plan = analysis.plans[config]
            assert tags["checks"] == plan.count_checks()
            assert tags["propagations"] == plan.count_propagations()
        solves = [tags for name, tags in spans if name == "pointer_analysis"]
        stats = analysis.prepared.solver_stats
        assert solves == [{
            "solver": "delta",
            "pops": stats.pops,
            "facts_propagated": stats.facts_propagated,
        }]
        assert stats.pops > 0 and stats.facts_propagated > 0

    def test_a_disabled_tracer_records_no_counters(self):
        from repro.api import analyze

        TRACE.clear()
        analyze(source=self.SOURCE, name="untraced")
        assert TRACE.events == []


class TestDisabledMode:
    def test_span_returns_shared_noop_singleton(self):
        tracer = Tracer()
        assert tracer.span("a") is NOOP_SPAN
        assert tracer.span("b", tier="full") is NOOP_SPAN
        with tracer.span("c") as span:
            assert span is NOOP_SPAN
            span.tag(anything=1)
        assert tracer.events == []

    def test_instant_disabled_is_noop(self):
        tracer = Tracer()
        tracer.instant("tick")
        assert tracer.events == []

    def test_disabled_span_allocates_nothing_lasting(self):
        tracer = Tracer()
        with tracer.span("warmup"):
            pass
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for _ in range(1000):
                with tracer.span("hot", tier="full"):
                    pass
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Transient call frames aside, nothing may survive the loop.
        assert after - before < 1024
        assert tracer.events == []


# Random span trees: each node is a list of children.
TREES = st.recursive(
    st.just([]), lambda kids: st.lists(kids, max_size=3), max_leaves=12
)


class TestNestingProperties:
    @settings(max_examples=50, deadline=None)
    @given(trees=st.lists(TREES, min_size=1, max_size=4))
    def test_random_trees_nest_and_order(self, trees):
        tracer = make_tracer()

        def record(children, depth):
            with tracer.span(f"d{depth}"):
                for grandkids in children:
                    record(grandkids, depth + 1)

        for children in trees:
            record(children, 0)

        events = tracer.events
        assert all(e.end is not None for e in events)
        for index, event in enumerate(events):
            # Spans append in start order; parents open before children
            # and close after them.
            assert event.parent < index
            if event.parent >= 0:
                parent = events[event.parent]
                assert parent.start <= event.start
                assert event.end <= parent.end
        starts = [e.start for e in events]
        assert starts == sorted(starts)
        # The chrome export round-trips through the schema validator.
        payload = json.dumps(tracer.chrome_trace())
        assert validate_chrome_trace(payload) == len(events)


class TestChromeTrace:
    def _tracer_with_spans(self):
        tracer = make_tracer()
        with tracer.span("root", tier="full"):
            with tracer.span("leaf"):
                pass
        return tracer

    def test_emits_metadata_and_complete_events(self):
        payload = self._tracer_with_spans().chrome_trace()
        phases = [e["ph"] for e in payload["traceEvents"]]
        assert phases.count("M") == 1  # one pid -> one process_name
        assert phases.count("X") == 2
        meta = payload["traceEvents"][0]
        assert meta["name"] == "process_name"
        assert meta["args"]["name"] == "repro"

    def test_timestamps_relative_to_first_span(self):
        payload = self._tracer_with_spans().chrome_trace()
        spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert min(s["ts"] for s in spans) == 0
        assert all(s["dur"] >= 0 for s in spans)

    def test_write_chrome_trace(self, tmp_path):
        tracer = self._tracer_with_spans()
        out = tmp_path / "trace.json"
        assert tracer.write_chrome_trace(out) == 2
        assert validate_chrome_trace(out.read_text()) == 2

    def test_non_json_tags_are_stringified(self):
        tracer = make_tracer()
        with tracer.span("odd", obj=object(), ok=1):
            pass
        payload = tracer.chrome_trace()
        span = [e for e in payload["traceEvents"] if e["ph"] == "X"][0]
        assert isinstance(span["args"]["obj"], str)
        assert span["args"]["ok"] == 1
        json.dumps(payload)  # must be serializable end to end


class TestValidateChromeTrace:
    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            validate_chrome_trace([1, 2, 3])

    def test_rejects_missing_trace_events(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({})

    def test_rejects_unknown_phase(self):
        bad = {"traceEvents": [{"ph": "B", "name": "x", "pid": 1, "tid": 1}]}
        with pytest.raises(ValueError, match="phase"):
            validate_chrome_trace(bad)

    def test_rejects_negative_duration(self):
        bad = {
            "traceEvents": [
                {
                    "ph": "X",
                    "name": "x",
                    "pid": 1,
                    "tid": 1,
                    "ts": 0,
                    "dur": -1,
                }
            ]
        }
        with pytest.raises(ValueError, match="dur"):
            validate_chrome_trace(bad)

    def test_rejects_missing_name(self):
        bad = {"traceEvents": [{"ph": "X", "pid": 1, "tid": 1}]}
        with pytest.raises(ValueError, match="name"):
            validate_chrome_trace(bad)

    def test_accepts_bytes_and_str(self):
        payload = json.dumps({"traceEvents": []})
        assert validate_chrome_trace(payload) == 0
        assert validate_chrome_trace(payload.encode()) == 0
