import time

from spans import Span, SpanRecorder, covered, self_time_by_name, self_times


def test_covered_merges_overlapping_children_and_clips():
    assert covered(0, 10, [(1, 3), (2, 5), (8, 12)]) == 6
    assert covered(0, 10, []) == 0
    assert covered(0, 10, [(-5, -1), (11, 12)]) == 0


def test_self_time_subtracts_union_of_children():
    spans = [Span(1, "read", 0.0, 10.0),
             Span(2, "route", 1.0, 3.0, parent=1),
             Span(3, "submit", 2.0, 5.0, parent=1),
             Span(4, "kernel", 2.5, 4.0, parent=3),
             Span(5, "result", 8.0, 12.0, parent=1)]
    own = self_times(spans)
    assert own == {1: 4.0, 2: 2.0, 3: 1.5, 4: 1.5, 5: 4.0}
    by_name = self_time_by_name(spans + [Span(6, "route", 20.0, 21.0)])
    assert by_name["route"] == (2, 3.0)


def test_nested_spans_inherit_parent_and_request():
    rec = SpanRecorder()
    with rec.span("read", req=7) as outer:
        with rec.span("route") as inner:
            time.sleep(0.001)
    assert inner.parent == outer.id and inner.req == 7
    assert outer.parent is None
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert {s.name for s in rec.spans()} == {"read", "route"}


def test_wrap_traces_one_instance_only():
    class Engine:
        def submit(self, x):
            return x + 1

    rec = SpanRecorder()
    traced, plain = Engine(), Engine()
    rec.wrap(traced, "submit", "Engine.submit")
    with rec.span("read", req=1):
        assert traced.submit(1) == 2
    assert plain.submit(1) == 2
    sub = [s for s in rec.spans() if s.name == "Engine.submit"]
    assert len(sub) == 1 and sub[0].req == 1
    assert len(rec.durations("Engine.submit")) == 1
