"""In-memory span recorder for the traced runs.

The benchmark records spans only around its own calls into the layers of
``repro``; nothing inside the package is instrumented.  A span has a
name, start, end, parent span and a request id shared by every span of
one read.  Spans stay in memory while the workload runs and are written
out once at the end, so recording costs one list append per span.

Self time of a span is its duration minus the part of its interval that
its children cover (children may overlap one another, e.g. when they run
on different threads, so their union is subtracted, clipped to the
parent).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Iterator


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None = None
    req: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Thread-safe span collector with a per-thread current-span stack."""

    def __init__(self) -> None:
        self._spans: list[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def new_id(self) -> int:
        """Reserve a span id (for a span recorded later via :meth:`add`)."""
        with self._lock:
            return next(self._ids)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    @contextmanager
    def span(self, name: str, *, req: int | None = None,
             parent: int | None = None, **attrs: Any) -> Iterator[Span]:
        """Record the enclosed block as a child of this thread's current
        span (or of ``parent``); ``req`` defaults to the parent's."""
        stack = self._stack()
        outer = stack[-1] if stack else None
        if parent is None and outer is not None:
            parent = outer.id
        if req is None and outer is not None:
            req = outer.req
        sp = Span(self.new_id(), name, time.perf_counter(), 0.0, parent,
                  req, attrs)
        stack.append(sp)
        try:
            yield sp
        finally:
            stack.pop()
            sp.end = time.perf_counter()
            self.add(sp)

    def wrap(self, obj: Any, attr: str, name: str) -> None:
        """Shadow ``obj.attr`` (a bound method) with a spanned call.

        The wrapper is set on the instance, so the class and every other
        instance are untouched and the program's own code runs unchanged.
        """
        inner = getattr(obj, attr)

        @functools.wraps(inner)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(obj, attr, traced)

    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans() if s.name == name]

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for sp in self.spans():
                f.write(json.dumps(asdict(sp)) + "\n")


def covered(start: float, end: float,
            intervals: list[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span, keyed by span id."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    return {sp.id: sp.duration - covered(sp.start, sp.end,
                                         children.get(sp.id, []))
            for sp in spans}


def self_time_by_name(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """``name -> (span count, total self seconds)``."""
    own = self_times(spans)
    out: dict[str, tuple[int, float]] = {}
    for sp in spans:
        n, tot = out.get(sp.name, (0, 0.0))
        out[sp.name] = (n + 1, tot + own[sp.id])
    return out
