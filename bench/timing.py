"""Span timing shared by the benchmark's timed runs and its traced runs.

A span is one timed call: a name, a start and end on the `perf_counter`
clock, the index of the span that was open when it began, and optional
counters of the work it did.  Spans stay in memory; callers summarise them
when the run ends.  The end-to-end metrics and the per-layer metrics are
both computed from spans recorded here, so the two cannot disagree about
what a call cost.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

ROOT = -1  # parent index of a span that began with no other span open

# The CPU speed of a shared host drifts: on a 2-core cloud VM the time of a
# fixed pure-Python loop varied by up to 75% between repetitions, in phases
# lasting tens of seconds, and an operation's time moved with it.  Timing a
# fixed piece of work (the probe: a Python loop and a few small numpy
# products, like the program's own mix) right before and after an operation
# and scaling the operation's time by REFERENCE_PROBE_S / (probe time)
# expresses it in seconds of a host whose probe takes REFERENCE_PROBE_S.  On
# that VM, 147 `expand` commands spread by 28% (interquartile range over
# median) in wall-clock time and by 5% once scaled by the Python loop alone.
# The constant is arbitrary: about what the probe took there, between its
# slow and fast phases.
REFERENCE_PROBE_S = 0.02
_PROBE_RNG = np.random.default_rng(0)
_PROBE_X = _PROBE_RNG.standard_normal((1000, 13))
_PROBE_W = _PROBE_RNG.standard_normal((4, 13))


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = ROOT
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans in the order they begin."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else ROOT
        self._open.append(index)
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        return index

    def end(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._open.pop()
        return span

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn inside a span named name and return its result."""
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def wrap(self, name: str, fn: Callable, measure: Optional[Callable] = None) -> Callable:
        """fn with every call recorded as a span.

        measure(args, kwargs, result) returns counters stored on the span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.end(index)
            if measure is not None:
                span.counters = measure(args, kwargs, result)
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent != ROOT:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def probe() -> float:
    """Seconds the fixed probe work takes now: the host's current speed."""
    start = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i
    for _ in range(40):  # a softmax gradient step on a 1000 x 13 batch
        z = _PROBE_X @ _PROBE_W.T
        z = np.exp(z - z.max(axis=1, keepdims=True))
        z /= z.sum(axis=1, keepdims=True)
        z.T @ _PROBE_X
    return time.perf_counter() - start


def at_reference_speed(seconds: float, probe_before: float, probe_after: float) -> float:
    """A duration scaled to a host whose probe takes REFERENCE_PROBE_S."""
    return seconds * REFERENCE_PROBE_S / ((probe_before + probe_after) / 2.0)
