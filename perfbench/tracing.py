"""In-memory span recorder for the traced run.

Spans are recorded by the benchmark around its calls into the library; the
library itself is not instrumented.  A span's self time is its duration
minus the time its direct children cover (spans are strictly nested, since
the benchmark is single-threaded).
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    op: int
    parent: int | None  # index into Tracer.spans
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op_start: list[int] = []  # index of each op's root span

    @property
    def n_ops(self) -> int:
        return len(self._op_start)

    @contextmanager
    def op(self, name: str):
        """Root span of one operation; spans opened inside share its op id."""
        self._op_start.append(len(self.spans))
        with self.span(name) as root:
            yield root

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, len(self._op_start) - 1, parent, time.perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def self_times(self, op: int) -> dict[str, float]:
        """Summed self time per span name within one operation."""
        indices = range(self._op_start[op], self._op_start[op] + self.op_span_count(op))
        self_time = {k: self.spans[k].duration for k in indices}
        for k in indices:
            parent = self.spans[k].parent
            if parent is not None:
                self_time[parent] -= self.spans[k].duration
        totals: dict[str, float] = {}
        for k in indices:
            name = self.spans[k].name
            totals[name] = totals.get(name, 0.0) + self_time[k]
        return totals

    def op_span_count(self, op: int) -> int:
        end = self._op_start[op + 1] if op + 1 < len(self._op_start) else len(self.spans)
        return end - self._op_start[op]

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "op": s.op, "parent": s.parent,
                 "start": s.start, "end": s.end} for s in self.spans]


def span_cost(samples: int = 5000) -> float:
    """Seconds one span costs to record, measured on empty spans."""
    tracer = Tracer()
    start = time.perf_counter()
    with tracer.op("calibrate"):
        for _ in range(samples):
            with tracer.span("empty"):
                pass
    return (time.perf_counter() - start) / (samples + 1)
