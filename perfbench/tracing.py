"""Span tracer with self-time accounting, installed from outside the program.

A span is opened around a call and closed when it returns.  Each thread keeps
its own stack of open spans; when a span closes, its duration is added to its
parent's *child time*, and its own *self time* is its duration minus its child
time.  Nested and recursive spans therefore never count an interval twice:
``check_reference`` re-entering itself through the engine splits cleanly into
per-frame self times.  Garbage-collector pauses are spans too (through
``gc.callbacks``), so they are subtracted from whatever span they interrupt.

Totals are kept in memory per thread and merged by :meth:`Tracer.snapshot`.
"""

from __future__ import annotations

import functools
import gc
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class Tracer:
    """Per-name self time and call counts, plus free-form counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[dict] = []
        self.counters: Dict[str, float] = defaultdict(float)

    # -- per-thread state ------------------------------------------------------------
    def _state(self) -> dict:
        state = getattr(self._local, "state", None)
        if state is None:
            state = {"stack": [], "self": defaultdict(float),
                     "total": defaultdict(float), "calls": defaultdict(int)}
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def enter(self, name: str) -> None:
        self._state()["stack"].append([name, self.clock(), 0.0])

    def exit(self) -> float:
        """Close the innermost open span; return its duration."""
        end = self.clock()
        state = self._state()
        stack = state["stack"]
        name, start, child = stack.pop()
        duration = end - start
        state["self"][name] += duration - child
        state["total"][name] += duration
        state["calls"][name] += 1
        if stack:
            stack[-1][2] += duration
        return duration

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    # -- results ---------------------------------------------------------------------
    def reset(self) -> None:
        """Forget every closed span and counter (open spans keep running)."""
        with self._lock:
            for state in self._threads:
                for key in ("self", "total", "calls"):
                    state[key].clear()
            self.counters.clear()

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Merged per-name ``self`` and ``total`` seconds, ``calls`` and
        ``counters``.  A recursive span's ``total`` counts nested frames
        once per frame; its ``self`` never double counts."""
        merged: Dict[str, Dict[str, float]] = {
            key: defaultdict(float) for key in ("self", "total", "calls")}
        with self._lock:
            for state in self._threads:
                for key, totals in merged.items():
                    for name, value in list(state[key].items()):
                        totals[name] += value
            counters = dict(self.counters)
        result = {key: dict(totals) for key, totals in merged.items()}
        result["counters"] = counters
        return result

    # -- garbage collection ------------------------------------------------------------
    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.enter("gc")
        elif self._state()["stack"]:
            self.exit()

    def watch_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def unwatch_gc(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)


# -- wrapping ----------------------------------------------------------------------------
def _lookup(owner, attr: str):
    """The raw attribute (function, classmethod, ...) as ``owner`` resolves it."""
    for klass in getattr(owner, "__mro__", (owner,)):
        if attr in vars(klass):
            return vars(klass)[attr]
    raise AttributeError(f"{owner!r} has no attribute {attr!r}")


def wrap(tracer: Tracer, owner, attr: str, name: str,
         after: Optional[Callable] = None) -> None:
    """Replace ``owner.attr`` by a version that records span ``name``.

    ``after(args, kwargs, result)`` runs once the span has closed, outside
    its timing, to derive counters from a call's arguments and result.
    Class methods and plain functions (modules as ``owner``) both work.
    """
    raw = _lookup(owner, attr)
    is_classmethod = isinstance(raw, classmethod)
    func = raw.__func__ if is_classmethod else raw

    @functools.wraps(func)
    def traced(*args, **kwargs):
        tracer.enter(name)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(args, kwargs, result)
        return result

    setattr(owner, attr, classmethod(traced) if is_classmethod else traced)


def wrap_generator(tracer: Tracer, owner, attr: str, name: str) -> None:
    """Like :func:`wrap`, for a generator function: each ``next`` is a span."""
    func = _lookup(owner, attr)

    @functools.wraps(func)
    def traced(*args, **kwargs):
        inner = func(*args, **kwargs)

        def steps():
            while True:
                tracer.enter(name)
                try:
                    item = next(inner)
                except StopIteration:
                    tracer.exit()
                    return
                except BaseException:
                    tracer.exit()
                    raise
                tracer.exit()
                yield item

        return steps()

    setattr(owner, attr, traced)
