"""Tests for stage chaining and trace recording."""

import pytest

from repro.sim.sequence import Join, chain, join
from repro.sim.trace import Trace, TraceSet, percentile


# ----------------------------------------------------------------------
# chain / join
# ----------------------------------------------------------------------
def test_chain_runs_stages_in_order():
    order = []

    def stage(tag):
        def run(done):
            order.append(tag)
            done()

        return run

    chain([stage(1), stage(2), stage(3)], lambda: order.append("end"))
    assert order == [1, 2, 3, "end"]


def test_chain_empty_fires_immediately():
    fired = []
    chain([], lambda: fired.append(True))
    assert fired == [True]


def test_join_waits_for_all_arms():
    fired = []
    arms = join(3, lambda: fired.append(True))
    arms[0]()
    arms[1]()
    assert fired == []
    arms[2]()
    assert fired == [True]


def test_join_zero_arms_fires_immediately():
    fired = []
    join(0, lambda: fired.append(True))
    assert fired == [True]


def test_join_arm_double_call_rejected():
    arms = join(2, lambda: None)
    arms[0]()
    with pytest.raises(RuntimeError):
        arms[0]()


def test_join_dynamic_arms():
    fired = []
    barrier = Join(lambda: fired.append(True))
    first = barrier.expect()
    first()
    second = barrier.expect()
    barrier.seal()
    assert fired == []
    second()
    assert fired == [True]


# ----------------------------------------------------------------------
# Trace
# ----------------------------------------------------------------------
def test_trace_record_and_stats():
    trace = Trace("t")
    for t, v in [(0, 1.0), (1, 3.0), (2, 5.0)]:
        trace.record(t, v)
    assert len(trace) == 3
    assert trace.mean() == pytest.approx(3.0)
    assert trace.max() == 5.0
    assert trace.min() == 1.0
    assert trace.last == 5.0


def test_trace_rejects_out_of_order():
    trace = Trace()
    trace.record(5.0, 1.0)
    with pytest.raises(ValueError):
        trace.record(4.0, 1.0)


def test_trace_window():
    trace = Trace()
    for t in range(10):
        trace.record(float(t), float(t))
    window = trace.window(3.0, 6.0)
    assert window.times == [3.0, 4.0, 5.0, 6.0]


def test_traceset_get_and_record():
    traces = TraceSet()
    traces.record("cpu", 0.0, 0.5)
    traces.record("cpu", 1.0, 0.7)
    assert "cpu" in traces
    assert len(traces["cpu"]) == 2
    assert traces.names() == ["cpu"]


def test_empty_trace_stats_are_zero():
    trace = Trace()
    assert trace.mean() == 0.0
    assert trace.max() == 0.0
    assert trace.last is None


def test_window_of_empty_trace_is_empty():
    assert len(Trace().window(0.0, 100.0)) == 0


def test_window_is_inclusive_on_both_boundaries():
    trace = Trace()
    for t in (1.0, 2.0, 3.0):
        trace.record(t, t)
    assert trace.window(1.0, 3.0).times == [1.0, 2.0, 3.0]
    assert trace.window(1.5, 2.5).times == [2.0]
    assert trace.window(4.0, 9.0).times == []


# ----------------------------------------------------------------------
# percentile
# ----------------------------------------------------------------------
def test_percentile_interpolates_linearly():
    values = [10.0, 20.0, 30.0, 40.0]
    assert percentile(values, 0.0) == 10.0
    assert percentile(values, 100.0) == 40.0
    assert percentile(values, 50.0) == pytest.approx(25.0)
    assert percentile(values, 95.0) == pytest.approx(38.5)


def test_percentile_is_order_insensitive():
    assert percentile([3.0, 1.0, 2.0], 50.0) == 2.0


def test_percentile_single_sample():
    assert percentile([7.0], 99.0) == 7.0


def test_percentile_empty_is_zero():
    assert percentile([], 95.0) == 0.0


def test_percentile_rejects_bad_q():
    with pytest.raises(ValueError):
        percentile([1.0], -1.0)
    with pytest.raises(ValueError):
        percentile([1.0], 101.0)


def test_trace_percentile_delegates():
    trace = Trace("lat")
    for t, v in enumerate([10.0, 20.0, 30.0, 40.0]):
        trace.record(float(t), v)
    assert trace.percentile(50.0) == pytest.approx(25.0)
    assert Trace().percentile(99.0) == 0.0
