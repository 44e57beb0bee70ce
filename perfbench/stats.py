"""Pure measurement helpers: percentiles, open-loop accounting, rate search.

Nothing here imports ``repro`` or touches the clock except through the
arguments it is given, so every rule the benchmark applies to its samples
can be unit-tested on hand-made numbers (``test_perfbench_helpers.py``).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

#: a percentile is only trusted with at least this many samples above it.
MIN_BEYOND = 10
#: the default tail percentile of the run record.
TAIL_PERCENTILE = 90.0
#: a trial's backlog grew when its last quarter waited this much longer to
#: be sent than its first quarter did.
BACKLOG_TOLERANCE_S = 0.05
#: the rate search stops when its bracket is this narrow (5%) ...
RATE_RESOLUTION = 0.05
#: ... and never offers more than ``RATE_CEILING`` or less than ``RATE_FLOOR``.
RATE_CEILING = 1000.0
RATE_FLOOR = 1.0


def nearest_rank(samples: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile (0 < q <= 100) of ``samples``."""
    if not samples:
        raise ValueError("no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(samples)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def tail(samples: Sequence[float],
         q: float = TAIL_PERCENTILE) -> Dict[str, object]:
    """The ``q``-th percentile, or a lower one if ``q`` lacks the samples.

    ``q`` is kept when at least ``MIN_BEYOND`` samples lie above it;
    otherwise the value is the highest percentile that still has them (the
    ``MIN_BEYOND + 1``-th largest sample).  The record names the percentile
    it stands for and the sample count; with ``MIN_BEYOND`` samples or fewer
    the value is the maximum and ``rule_met`` is false.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if count == 0:
        raise ValueError("no samples")
    index = max(math.ceil(q / 100.0 * count), 1) - 1
    if count - index - 1 < MIN_BEYOND:
        index = count - MIN_BEYOND - 1 if count > MIN_BEYOND else count - 1
    return {"value": ordered[index], "samples": count,
            "percentile": 100.0 * (index + 1) / count,
            "beyond": count - index - 1,
            "rule_met": count - index - 1 >= MIN_BEYOND}


def latency_record(read_ms: Sequence[float],
                   write_ms: Sequence[float]) -> Dict[str, object]:
    """The latencies a run records but does not gate: read tails, writes."""
    return {"read_p90_ms": tail(read_ms), "read_p99_ms": tail(read_ms, q=99),
            "write_p50_ms": {"value": statistics.median(write_ms),
                             "samples": len(write_ms)},
            "write_p90_ms": tail(write_ms)}


# -- open-loop accounting ------------------------------------------------------------
@dataclass
class OpTiming:
    """One open-loop operation: when it was due, handed out, sent and done.

    ``queued`` is when the generator handed the operation to the connection
    pool; ``sent`` when a connection started it; ``done`` when its response
    (or failure) arrived.  All times share one monotonic clock.
    """

    due: float
    queued: float
    sent: float
    done: float

    @property
    def latency(self) -> float:
        """Due-time latency: a stall also delays every request queued behind it."""
        return self.done - self.due

    @property
    def service(self) -> float:
        """What the client alone observed: send to response."""
        return self.done - self.sent

    @property
    def generator_lag(self) -> float:
        """How late the generator itself handed the operation out."""
        return self.queued - self.due


def schedule(start: float, rate: float, count: int) -> List[float]:
    """Evenly spaced due times: ``count`` operations at ``rate`` per second."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    return [start + index / rate for index in range(count)]


def backlog_grows(timings: Sequence[OpTiming], unsent: int) -> bool:
    """Whether the queue in front of the server grew over a trial.

    It grew when operations were still unsent when the trial ended, or when
    the wait between due and send time in the last quarter of the trial
    exceeds the first quarter's by more than ``BACKLOG_TOLERANCE_S``.
    """
    if unsent > 0:
        return True
    if len(timings) < 8:
        return False
    ordered = sorted(timings, key=lambda timing: timing.due)
    quarter = len(ordered) // 4
    first = statistics.median(t.sent - t.due for t in ordered[:quarter])
    last = statistics.median(t.sent - t.due for t in ordered[-quarter:])
    return last - first > BACKLOG_TOLERANCE_S


# -- the highest sustainable rate ------------------------------------------------------
def find_max_rate(passes: Callable[[float], bool],
                  start: float) -> Dict[str, object]:
    """Bisect (geometrically) for the highest rate at which ``passes`` holds.

    ``start`` is the first rate tried.  From there the rate doubles until a
    trial fails (or ``RATE_CEILING`` is reached), or halves until one passes
    (down to ``RATE_FLOOR``); then the bracket ``[lo, hi]`` is split at its
    geometric midpoint until ``hi / lo <= 1 + RATE_RESOLUTION``.  Returns the
    highest passing rate (``0.0`` if even ``RATE_FLOOR`` failed) and every
    trial run, in order.
    """
    trials: List[Dict[str, object]] = []

    def trial(rate: float) -> bool:
        ok = bool(passes(rate))
        trials.append({"rate": rate, "passed": ok})
        return ok

    lo: Optional[float] = None
    hi: Optional[float] = None
    rate = start
    if trial(rate):
        lo = rate
        while lo < RATE_CEILING:
            rate = min(lo * 2.0, RATE_CEILING)
            if trial(rate):
                lo = rate
            else:
                hi = rate
                break
        if hi is None:
            return {"rate": lo, "trials": trials, "capped": True}
    else:
        hi = rate
        while hi > RATE_FLOOR:
            rate = max(hi / 2.0, RATE_FLOOR)
            if trial(rate):
                lo = rate
                break
            hi = rate
        if lo is None:
            return {"rate": 0.0, "trials": trials, "capped": False}
    while hi / lo > 1.0 + RATE_RESOLUTION:
        rate = math.sqrt(lo * hi)
        if trial(rate):
            lo = rate
        else:
            hi = rate
    return {"rate": lo, "trials": trials, "capped": False}
