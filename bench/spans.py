"""In-memory span recorder for the traced benchmark run.

Each recorded call becomes one span: trace id, span id, parent span id,
name, function, start and end (perf_counter seconds). Spans stay in memory
and are written out once, when the run ends. A span's self time is its
duration minus the time its direct children cover; children never overlap
because the benchmark is single-threaded.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class NullTracer:
    """Tracing off: calls go straight through."""

    trace_id = ""

    def call(self, span_name, fn, /, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records one span per call made through it."""

    def __init__(self):
        self.trace_id = ""
        self.spans = []
        self._open = []

    def begin(self, name, fn=""):
        parent = self._open[-1] if self._open else None
        span = [self.trace_id, len(self.spans), parent, name, fn, 0.0, 0.0]
        self.spans.append(span)
        self._open.append(span[1])
        span[5] = perf_counter()
        return span

    def end(self, span):
        span[6] = perf_counter()
        self._open.pop()

    def call(self, span_name, fn, /, *args, **kwargs):
        span = self.begin(span_name, getattr(fn, "__qualname__", ""))
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(span)

    def self_times(self) -> dict[str, float]:
        """Self time summed per span name."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span[2] is not None:
                child_time[span[2]] += span[6] - span[5]
        totals = defaultdict(float)
        for span in self.spans:
            totals[span[3]] += span[6] - span[5] - child_time[span[1]]
        return dict(totals)

    def write(self, path) -> None:
        keys = ("trace", "span", "parent", "name", "fn", "start", "end")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))))
                handle.write("\n")
