"""Spans around calls into the program's layers, and what they add up to.

A span is (name, start, end, parent, job).  Names are a layer (``lexer``),
a rule inside the rules layer (``rules.EmptyBlock``), ``job`` for one job,
or ``trace`` for the tracer's own bookkeeping (counting tokens, nodes and
so on), which is kept out of every layer's time.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

from .speed import ReferenceClock

LAYERS = (
    "lexer",
    "parser",
    "resolver",
    "callgraph",
    "cfg",
    "rules",
    "boundcheck",
    "clones",
    "instrument",
    "interpreter",
    "coverage",
    "emit",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: str | None
    failed: bool = False


class NullTracer:
    """Calls straight through: the untraced runs use this.  After each call
    the clock may cut a timing segment (see speed.py)."""

    def __init__(self):
        self.clock = ReferenceClock()

    def call(self, name, fn, *args):
        result = fn(*args)
        self.clock.lap()
        return result

    def count(self, name, fn, value) -> None:
        pass

    def job(self, job_id: str):
        return contextlib.nullcontext()


class Tracer:
    """Keeps every span in memory; the worker writes them out when the run ends."""

    def __init__(self):
        # Readings only around whole jobs, so that none lands inside a span.
        self.clock = ReferenceClock()
        self.spans: list[Span] = []
        self.counts: dict[tuple[str | None, str], int] = defaultdict(int)
        self._stack: list[int] = []
        self._job: str | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._job)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        try:
            yield
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args):
        with self.span(name):
            return fn(*args)

    def count(self, name: str, fn, value) -> None:
        with self.span("trace"):
            self.counts[self._job, name] += fn(value)

    @contextlib.contextmanager
    def job(self, job_id: str):
        self._job = job_id
        try:
            with self.span("job"):
                yield
        finally:
            self._job = None

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its children cover."""
        own = [s.end - s.start for s in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.end - span.start
        return own
