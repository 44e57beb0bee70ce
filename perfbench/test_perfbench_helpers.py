"""Tests for the benchmark's own measurement helpers.

Run with ``PYTHONPATH=src python -m pytest perfbench`` from the repository
root; they use hand-made numbers and a fake clock, never the program.
"""

from __future__ import annotations

import pytest

from inputs import Truth, WriteSchedule
from stats import (
    RATE_CEILING,
    OpTiming,
    backlog_grows,
    find_max_rate,
    nearest_rank,
    tail,
    schedule,
)
from service import Phase
from tracing import Tracer, wrap


# -- the percentile rule --------------------------------------------------------------
def test_nearest_rank_picks_an_observed_sample():
    samples = list(range(1, 101))
    assert nearest_rank(samples, 50) == 50
    assert nearest_rank(samples, 99) == 99
    assert nearest_rank(samples, 100) == 100
    assert nearest_rank([7.0], 99) == 7.0


def test_tail_keeps_p90_when_ten_samples_lie_beyond_it():
    full = tail([float(i) for i in range(360)])
    assert full["value"] == nearest_rank(range(360), 90) == 323.0
    assert full["percentile"] == 90.0 and full["beyond"] == 36
    assert full["rule_met"]


def test_tail_falls_back_to_the_highest_percentile_with_ten_beyond():
    writes = tail([float(i) for i in range(40)])
    assert writes["value"] == 29.0 and writes["beyond"] == 10
    assert writes["percentile"] == 75.0 and writes["rule_met"]
    # p99 needs 1,000 samples to leave ten beyond it
    p99 = tail([float(i) for i in range(1000)], q=99)
    assert p99["value"] == 989.0 and p99["percentile"] == 99.0
    short = tail([float(i) for i in range(999)], q=99)
    assert short["beyond"] == 10 and short["percentile"] < 99.0
    thin = tail([3.0, 1.0, 2.0])
    assert thin["value"] == 3.0 and not thin["rule_met"]


# -- self time over nested and recursive spans -------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.enter("outer")
    clock.advance(1)
    tracer.enter("inner")
    clock.advance(2)
    tracer.exit()
    clock.advance(3)
    tracer.exit()
    snap = tracer.snapshot()
    assert snap["self"] == {"outer": 4, "inner": 2}
    assert snap["total"] == {"outer": 6, "inner": 2}
    assert snap["calls"] == {"outer": 1, "inner": 1}


def test_recursive_spans_never_double_count_self_time():
    """``check_reference`` re-enters itself through the engine."""
    clock = FakeClock()
    tracer = Tracer(clock)

    def check(depth):
        tracer.enter("context.check_reference")
        clock.advance(1)
        if depth:
            tracer.enter("engine.match")
            clock.advance(0.5)
            check(depth - 1)
            tracer.exit()
        tracer.exit()

    check(2)
    snap = tracer.snapshot()
    # three frames of 1s each, two engine frames of 0.5s each: 4s of wall
    assert snap["self"]["context.check_reference"] == pytest.approx(3)
    assert snap["self"]["engine.match"] == pytest.approx(1)
    assert sum(snap["self"].values()) == pytest.approx(4)
    assert snap["calls"]["context.check_reference"] == 3


def test_gc_pause_is_taken_out_of_the_interrupted_span():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.enter("typing.add")
    clock.advance(1)
    tracer._on_gc("start", {})
    clock.advance(0.25)
    tracer._on_gc("stop", {})
    tracer.exit()
    snap = tracer.snapshot()
    assert snap["self"] == {"typing.add": 1, "gc": 0.25}


def test_wrap_records_spans_and_derived_counters():
    clock = FakeClock()
    tracer = Tracer(clock)

    class Thing:
        def work(self, amount):
            clock.advance(amount)
            return amount * 2

    wrap(tracer, Thing, "work", "thing.work",
         after=lambda args, kwargs, result: tracer.count("out", result))
    assert Thing().work(3) == 6
    snap = tracer.snapshot()
    assert snap["self"] == {"thing.work": 3}
    assert snap["counters"] == {"out": 6}


def test_reset_forgets_closed_spans():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.enter("a")
    clock.advance(1)
    tracer.exit()
    tracer.reset()
    assert tracer.snapshot()["self"] == {}


# -- due-time latency in the open loop ---------------------------------------------------
def test_latency_counts_from_the_due_time():
    # due at 1.0, handed out 1ms late, waited 40ms for a busy connection,
    # answered 2ms after it was sent
    timing = OpTiming(due=1.0, queued=1.001, sent=1.041, done=1.043)
    assert timing.latency == pytest.approx(0.043)
    assert timing.service == pytest.approx(0.002)
    assert timing.generator_lag == pytest.approx(0.001)


def test_schedule_is_evenly_spaced():
    assert schedule(10.0, 4.0, 3) == [10.0, 10.25, 10.5]
    with pytest.raises(ValueError):
        schedule(0.0, 0.0, 1)


def test_backlog_detection():
    steady = [OpTiming(i, i, i + 0.001, i + 0.002) for i in range(40)]
    assert not backlog_grows(steady, unsent=0)
    assert backlog_grows(steady, unsent=1)
    growing = [OpTiming(i, i, i + 0.01 * i, i + 0.01 * i + 0.002)
               for i in range(40)]
    assert backlog_grows(growing, unsent=0)


def test_unsent_reference_operations_count_as_failed():
    phase = Phase(20.0)
    phase.reads = [OpTiming(i, i, i + 0.001, i + 0.002) for i in range(18)]
    phase.writes = [OpTiming(18, 18, 18.001, 18.02)]
    phase.unsent = 3
    assert phase.attempted == 19 and phase.failed == 0
    phase.charge_unsent()
    assert phase.attempted == 22 and phase.failed == 3
    assert phase.failure_types == {"unsent": 3}
    assert not phase.passes()


# -- the rate bisection ---------------------------------------------------------------------
def test_bisection_brackets_the_limit_within_resolution():
    result = find_max_rate(lambda rate: rate <= 43.0, start=40.0)
    assert 43.0 / 1.05 <= result["rate"] <= 43.0
    rates = [trial["rate"] for trial in result["trials"]]
    assert rates[:2] == [40.0, 80.0]
    assert not result["capped"]


def test_bisection_searches_down_when_the_start_fails():
    result = find_max_rate(lambda rate: rate <= 12.0, start=40.0)
    assert 12.0 / 1.05 <= result["rate"] <= 12.0


def test_bisection_edges():
    assert find_max_rate(lambda rate: False, start=8.0)["rate"] == 0.0
    # doubling from 8 reaches the ceiling of 1,000 in seven more trials
    capped = find_max_rate(lambda rate: True, start=8.0)
    assert capped["capped"] and capped["rate"] == RATE_CEILING
    assert len(capped["trials"]) == 8


# -- ground truth under break/repair writes ----------------------------------------------------
def test_write_schedule_alternates_and_truth_follows():
    truth = Truth({
        "subjects": ["<a>", "<b>"], "labels": ["S"],
        "valid": [["<a>", "S"], ["<b>", "S"]],
        "targets": [{"node": "<a>", "add": "x\n", "remove": "",
                     "affected": [["<a>", "S"], ["<b>", "S"]]}],
    })
    writes = WriteSchedule(truth, seed=1)
    add, remove, target, broken = writes.next()
    assert (add, remove, target, broken) == ("x\n", "", 0, 0)
    assert not truth.expected("<b>", "S", broken)
    add, remove, target, broken = writes.next()
    assert (add, remove, broken) == ("", "x\n", None)
    assert truth.expected("<b>", "S", broken)
