"""Self time is duration minus the time child spans cover."""

import pytest

import spans


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def span(name, start, end, parent=None, **attrs):
    return spans.Span(name, start, end, parent=parent, attrs=attrs)


def test_self_time_subtracts_direct_children_only():
    recorded = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("a.inner", 2.0, 3.0, parent=1),
        span("b", 5.0, 6.5, parent=0),
    ]
    assert spans.self_times(recorded) == pytest.approx([5.5, 2.0, 1.0, 1.5])


def test_overlapping_and_overhanging_children_are_counted_once():
    assert spans.covered([(1.0, 3.0), (2.0, 4.0), (8.0, 12.0)], 0.0, 10.0) == pytest.approx(5.0)


def test_self_times_plus_unattributed_add_up_to_wall():
    recorded = [
        span("root", 1.0, 9.0),
        span("load", 2.0, 5.0, parent=0, cached=True),
        span("load", 5.0, 8.0, parent=0, cached=False),
        span("run", 6.0, 7.0, parent=2, count=40),
    ]
    summary = spans.summarise(recorded)
    wall = 10.0
    attributed = sum(stats["self_s"] for stats in summary["names"].values())
    assert attributed + (wall - summary["root_s"]) == pytest.approx(wall)
    load = summary["names"]["load"]
    assert (load["calls"], load["hits"], load["misses"]) == (2, 1, 1)
    assert load["self_s"] == pytest.approx(5.0)
    assert load["hit_self_s"] == pytest.approx(3.0)
    assert summary["names"]["run"]["count"] == 40
    assert summary["paths"][("root", "load", "run")]["total_s"] == pytest.approx(1.0)


def test_tracer_nests_spans_and_inherits_request_ids():
    clock = Clock()
    tracer = spans.Tracer(clock)

    def leaf():
        clock.now += 2.0

    def outer(name):
        clock.now += 1.0
        traced_leaf()
        clock.now += 1.0

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_outer = tracer.wrap("outer", outer, request_of=lambda name: name)
    traced_outer("figure9")
    outer_span, leaf_span = tracer.spans
    assert leaf_span.parent == 0 and leaf_span.request == "figure9"
    assert spans.self_times(tracer.spans) == pytest.approx([2.0, 2.0])


def test_direct_recursion_is_one_span():
    tracer = spans.Tracer(Clock())

    def walk(depth):
        return 0 if depth == 0 else 1 + traced(depth - 1)

    traced = tracer.wrap("walk", walk)
    assert traced(3) == 3
    assert [s.name for s in tracer.spans] == ["walk"]


def test_spans_closed_out_of_order_are_an_error():
    tracer = spans.Tracer(Clock())
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)
