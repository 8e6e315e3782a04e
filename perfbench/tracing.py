"""Span tracing from outside the program: public functions are wrapped
where their callers look them up, spans stay in memory, and self time is
computed per layer after the run.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str  # "<layer>.<function>", the layer being the eegtd module
    start: float
    end: float
    parent: int  # index of the enclosing span on the same thread, or -1
    thread: int
    phase: str
    info: dict[str, Any] = field(default_factory=dict)  # filled by observers

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


# Called with (span, args, kwargs, result) after a wrapped call returns.
Observer = Callable[[Span, tuple, dict, Any], None]


class Tracer:
    """Records spans of wrapped calls on every thread.

    `phase` labels the spans opened from now on, so one run can hold spans
    of several measured operations and of set-up.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        self._local = threading.local()
        self._lock = threading.Lock()
        self._specs: list[tuple[Any, str, str, Observer | None]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                    threading.get_ident(), self.phase)
        with self._lock:
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def wrap(self, fn: Callable, name: str, observe: Observer | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        return traced

    def add(self, owner: Any, attr: str, name: str,
            observe: Observer | None = None) -> None:
        """Trace owner.attr while the tracer is active; absent names are
        skipped, so the trace outlives a renamed or removed function."""
        self._specs.append((owner, attr, name, observe))

    @contextmanager
    def active(self, phase: str):
        """Wrap every added name and label new spans with `phase`."""
        self.phase = phase
        saved: list[tuple[Any, str, Callable]] = []
        try:
            for owner, attr, name, observe in self._specs:
                fn = getattr(owner, attr, None)
                if fn is not None:
                    saved.append((owner, attr, fn))
                    setattr(owner, attr, self.wrap(fn, name, observe))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover.

    Children of one span run on its thread and nest inside it, so they do
    not overlap one another and their durations can simply be subtracted.
    """
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def to_records(spans: list[Span]) -> list[dict]:
    return [
        {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
         "thread": s.thread, "phase": s.phase}
        for s in spans
    ]
