"""Span tracer: nesting, request-ID threading, error capture."""

import pytest

from repro.netsim import SimClock
from repro.obs import Tracer, TracingError, format_span_tree


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def tracer(clock):
    return Tracer(clock)


class TestSpanLifecycle:
    def test_root_span_gets_fresh_request_id(self, tracer):
        with tracer.span("a") as a:
            pass
        with tracer.span("b") as b:
            pass
        assert a.request_id == "req-000001"
        assert b.request_id == "req-000002"

    def test_children_inherit_request_id(self, tracer):
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                with tracer.span("grandchild") as grandchild:
                    pass
        assert child.request_id == root.request_id
        assert grandchild.request_id == root.request_id
        assert child.parent_id == root.span_id
        assert grandchild.parent_id == child.span_id

    def test_durations_follow_sim_clock(self, clock, tracer):
        with tracer.span("op") as span:
            clock.advance(1.5)
        assert span.duration == pytest.approx(1.5)

    def test_open_span_duration_zero(self, tracer):
        with tracer.span("op") as span:
            assert not span.finished
            assert span.duration == 0.0

    def test_end_must_be_innermost(self, tracer):
        outer = tracer.span("outer")
        outer_span = outer.__enter__()
        with tracer.span("inner"):
            with pytest.raises(TracingError):
                outer.__exit__(None, None, None)
        # The refused span left the stack and closed all the same, so
        # nothing later nests under it.
        assert outer_span.finished
        assert tracer.context() is None
        with tracer.span("later") as later:
            pass
        assert later.parent_id is None

    def test_exception_recorded_and_span_closed(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("op") as span:
                raise ValueError("boom")
        assert span.finished
        assert span.attrs["error"] == "ValueError: boom"
        assert tracer.context() is None

    def test_attrs_pass_through(self, tracer):
        with tracer.span("op", client="jis", port=750) as span:
            pass
        assert span.attrs == {"client": "jis", "port": 750}


class TestQueries:
    def test_current_request_id_tracks_stack(self, tracer):
        assert tracer.context() is None
        with tracer.span("a") as a:
            assert tracer.context().trace_id == a.request_id
            with tracer.span("b"):
                assert tracer.context().trace_id == a.request_id
        assert tracer.context() is None

    def test_by_request_and_request_ids(self, tracer):
        with tracer.span("first"):
            with tracer.span("inner"):
                pass
        with tracer.span("second"):
            pass
        rids = tracer.request_ids()
        assert len(rids) == 2
        assert [s.name for s in tracer.by_request(rids[0])] == [
            "first", "inner",
        ]

    def test_roots_and_children(self, tracer):
        with tracer.span("root") as root:
            with tracer.span("c1"):
                pass
            with tracer.span("c2"):
                pass
        assert tracer.roots() == [root]
        assert [s.name for s in tracer.children(root)] == ["c1", "c2"]

    def test_clear_keeps_open_spans(self, tracer):
        with tracer.span("done"):
            pass
        with tracer.span("live") as live:  # exits: the stack stayed balanced
            tracer.clear()
            assert tracer.spans == [live]


class TestFormatting:
    def test_span_tree_indents_children(self, clock, tracer):
        with tracer.span("root"):
            clock.advance(0.25)
            with tracer.span("child", step=1):
                clock.advance(0.5)
        tree = format_span_tree(tracer)
        lines = tree.splitlines()
        assert "root" in lines[0]
        assert lines[1].startswith("req-000001    child")
        assert "step=1" in lines[1]

    def test_span_tree_filters_by_request(self, tracer):
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        tree = format_span_tree(tracer, request_id="req-000002")
        assert "second" in tree and "first" not in tree
