"""In-memory span tracer that wraps layer entry points from outside.

The benchmark never edits ``src/``: a :class:`Tracer` replaces a public
function or method *where its caller looks it up* (the importing
module's attribute, or the class attribute) with a wrapper that records
a span around the call, and puts the original back on exit. Spans carry
a name, start and end (``perf_counter`` seconds), the id of the span
that was open on the same thread when the call began, and the thread.
Counts recorded by the wrappers land in :attr:`Tracer.counts` at the
same boundaries. Everything stays in memory until the run ends, then
:meth:`Tracer.chrome_trace` renders Chrome trace-event JSON (opens in
Perfetto or ``chrome://tracing``).
"""

from __future__ import annotations

import inspect
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = ["Span", "Tracer"]


@dataclass
class Span:
    """One timed call. ``end`` is ``None`` while the call is running."""

    span_id: int
    name: str
    start: float
    parent: int | None
    thread: int
    end: float | None = None
    #: run or job id; ``None`` inherits the nearest ancestor's.
    run: str | None = None
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start


#: ``after(span, args, kwargs, result)`` hook run when a wrapped call returns.
AfterHook = Callable[[Span, tuple, dict, Any], None]
#: ``before(span, args, kwargs)`` hook run just before the wrapped call.
BeforeHook = Callable[[Span, tuple, dict], None]


class Tracer:
    """Records spans and counts; installs and removes call wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.notes: dict[str, Any] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, run: str | None = None, **args: Any) -> Iterator[Span]:
        """Time the enclosed block as a span nested under the open one."""
        stack = self._stack()
        if run is None and not stack:
            # A root span with no run of its own belongs to its thread.
            run = f"thread:{threading.current_thread().name}"
        with self._lock:
            span_id = next(self._ids)
            self._open += 1
            self.spans.append(Span(
                span_id=span_id,
                name=name,
                start=time.perf_counter(),
                parent=stack[-1].span_id if stack else None,
                thread=threading.get_ident(),
                run=run,
                args=dict(args),
            ))
            span = self.spans[-1]
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self._open -= 1

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    def high_water(self, name: str, value: float) -> None:
        with self._lock:
            if value > self.maxima[name]:
                self.maxima[name] = value

    @property
    def open_spans(self) -> int:
        return self._open

    # -- wrapping ------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        after: AfterHook | None = None,
        before: BeforeHook | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is a module (the importing module, so the caller's
        global lookup finds the wrapper) or a class (instance methods,
        static and class methods keep their binding).
        """
        raw = inspect.getattr_static(owner, attr)
        tracer = self

        def timed(func: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                with tracer.span(name) as span:
                    if before is not None:
                        before(span, args, kwargs)
                    result = func(*args, **kwargs)
                    if after is not None:
                        after(span, args, kwargs, result)
                return result

            wrapper.__name__ = getattr(func, "__name__", attr)
            wrapper.__wrapped__ = func
            return wrapper

        if isinstance(raw, classmethod):
            replacement: object = classmethod(timed(raw.__func__))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(timed(raw.__func__))
        else:
            replacement = timed(raw)
        inherited = isinstance(owner, type) and attr not in vars(owner)
        self._patches.append((owner, attr, None if inherited else raw))
        setattr(owner, attr, replacement)

    def unwrap_all(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if raw is None:
                delattr(owner, attr)  # the class inherited it; drop the override
            else:
                setattr(owner, attr, raw)

    # -- analysis ------------------------------------------------------
    def children(self) -> dict[int | None, list[Span]]:
        out: dict[int | None, list[Span]] = defaultdict(list)
        for span in self.spans:
            out[span.parent].append(span)
        return out

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part its children cover."""
        kids = self.children()
        out: dict[int, float] = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            end = span.end if span.end is not None else span.start
            for child in sorted(kids.get(span.span_id, ()), key=lambda s: s.start):
                lo = max(child.start, cursor)
                hi = min(child.end if child.end is not None else child.start, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[span.span_id] = span.duration - covered
        return out

    @staticmethod
    def ancestors(span: Span, by_id: dict[int, Span]) -> Iterator[Span]:
        parent = span.parent
        while parent is not None:
            span = by_id[parent]
            yield span
            parent = span.parent

    def run_of(self, span: Span, by_id: dict[int, Span]) -> str | None:
        """The span's run id, or the nearest ancestor's."""
        if span.run is not None:
            return span.run
        return next((a.run for a in self.ancestors(span, by_id) if a.run), None)

    def chrome_trace(self, pid: int = 1) -> dict[str, Any]:
        """Chrome trace-event JSON (complete ``X`` events, microseconds)."""
        origin = min((s.start for s in self.spans), default=0.0)
        by_id = {s.span_id: s for s in self.spans}
        threads = {}
        events = []
        for span in self.spans:
            tid = threads.setdefault(span.thread, len(threads) + 1)
            args = {
                "span_id": span.span_id,
                "parent": span.parent,
                "run": self.run_of(span, by_id),
            }
            args.update({k: _jsonable(v) for k, v in span.args.items()})
            events.append({
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": pid,
                "tid": tid,
                "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
