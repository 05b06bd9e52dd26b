"""Spans recorded from outside the program, around its public calls.

A :class:`Tracer` keeps every span in memory as ``(id, name, start, end,
parent, thread, attrs)`` and writes nothing until the run ends.  Spans
nest through a context variable on the thread that opened them; spans
opened on worker threads (the crawler's pool) have no context parent
and are attributed afterwards to the innermost main-thread span whose
interval contains them (:meth:`Tracer.attribute`).

:func:`install` patches a call *where it is looked up*: a function
imported by name into another module is a separate binding there, so
each binding is listed on its own in the layer tables.
"""

from __future__ import annotations

import bisect
import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

_clock = time.perf_counter


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict[str, Any] | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder (thread-safe: appends are atomic)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.main_thread = threading.get_ident()
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            "perfbench_span", default=None
        )

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        sid = next(self._ids)
        parent = self._current.get()
        token = self._current.set(sid)
        start = _clock()
        try:
            yield attrs
        finally:
            end = _clock()
            self._current.reset(token)
            self.spans.append(
                Span(sid, name, start, end, parent, threading.get_ident(), attrs or None)
            )

    def wrap(
        self,
        fn: Callable,
        name: str | Callable[..., str],
        attrs: Callable[..., dict[str, Any]] | None = None,
    ) -> Callable:
        """``fn`` inside a span; ``attrs(result, *args, **kwargs)`` annotates it."""
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # a generator's work happens at each next(): sum the time spent
            # inside it onto one span.  The span never becomes the context
            # parent, because the consumer's code runs between the items.
            @functools.wraps(fn)
            def wrapped_gen(*args, **kwargs):
                span_name = name(*args, **kwargs) if callable(name) else name
                parent = tracer._current.get()
                start = _clock()
                busy = 0.0
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        started = _clock()
                        try:
                            item = next(inner)
                        except StopIteration:
                            busy += _clock() - started
                            return
                        busy += _clock() - started
                        yield item
                finally:
                    tracer.spans.append(
                        Span(next(tracer._ids), span_name, start, _clock(), parent,
                             threading.get_ident(), {"busy_s": busy})
                    )

            return wrapped_gen

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            with tracer.span(span_name) as span_attrs:
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    span_attrs["raised"] = type(exc).__name__
                    raise
                if attrs is not None:
                    span_attrs.update(attrs(result, *args, **kwargs))
                return result

        return wrapped

    # -- analysis ----------------------------------------------------------------

    def attribute(self) -> dict[int, int | None]:
        """Parent of every span, worker-thread spans placed by interval."""
        parents = {span.sid: span.parent for span in self.spans}
        main = sorted(
            (s for s in self.spans if s.thread == self.main_thread),
            key=lambda s: s.start,
        )
        starts = [s.start for s in main]
        for span in self.spans:
            if span.parent is not None or span.thread == self.main_thread:
                continue
            # main-thread spans form one tree: walking back from the last
            # one that started first reaches the innermost enclosing span
            index = bisect.bisect_right(starts, span.start) - 1
            while index >= 0 and main[index].end < span.end:
                index -= 1
            parents[span.sid] = main[index].sid if index >= 0 else None
        return parents

    def children(self) -> dict[int | None, list[Span]]:
        kids: dict[int | None, list[Span]] = {}
        parents = self.attribute()
        for span in self.spans:
            kids.setdefault(parents[span.sid], []).append(span)
        return kids

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """``name -> (count, total seconds, self seconds)``.

        Self time is a span's duration minus the union of its children's
        intervals (clipped to the span), so children on several worker
        threads count once.
        """
        kids = self.children()
        table: dict[str, list[float]] = {}
        for span in self.spans:
            covered = union_seconds(
                (max(c.start, span.start), min(c.end, span.end))
                for c in kids.get(span.sid, [])
            )
            row = table.setdefault(span.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += span.seconds
            row[2] += span.seconds - covered
        return {name: (int(r[0]), r[1], r[2]) for name, r in table.items()}

    def uncovered(self) -> tuple[float, float]:
        """``(uncovered seconds, wall seconds)`` summed over ``phase.*`` spans."""
        kids = self.children()
        uncovered = wall = 0.0
        for span in self.spans:
            if not span.name.startswith("phase."):
                continue
            covered = union_seconds(
                (max(c.start, span.start), min(c.end, span.end))
                for c in kids.get(span.sid, [])
            )
            uncovered += span.seconds - covered
            wall += span.seconds
        return uncovered, wall

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def attr_sum(self, name: str, key: str) -> float:
        return sum(
            (s.attrs or {}).get(key, 0) for s in self.spans if s.name == name
        )

    def to_json(self) -> list[list[Any]]:
        return [
            [s.sid, s.name, s.start, s.end, s.parent, s.thread, s.attrs]
            for s in self.spans
        ]

    @classmethod
    def from_json(cls, rows: list[list[Any]], main_thread: int) -> "Tracer":
        tracer = cls()
        tracer.main_thread = main_thread
        tracer.spans = [Span(*row) for row in rows]
        return tracer


def union_seconds(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


# -- patching ----------------------------------------------------------------------


@dataclass(frozen=True)
class Patch:
    """One binding to wrap: ``module`` + dotted ``attr`` (e.g. ``Cls.method``)."""

    module: str
    attr: str
    name: str | Callable[..., str]
    attrs: Callable[..., dict[str, Any]] | None = None


def install(tracer: Tracer, patches: Iterable[Patch]) -> Callable[[], None]:
    """Wrap every binding; returns the function that restores them."""
    undo: list[Callable[[], None]] = []
    for patch in patches:
        owner: Any = importlib.import_module(patch.module)
        *path, leaf = patch.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        static = inspect.getattr_static(owner, leaf)
        if isinstance(static, classmethod):
            replacement: Any = classmethod(
                tracer.wrap(static.__func__, patch.name, patch.attrs)
            )
        else:
            replacement = tracer.wrap(static, patch.name, patch.attrs)
        setattr(owner, leaf, replacement)
        undo.append(functools.partial(setattr, owner, leaf, static))

    def restore() -> None:
        for step in reversed(undo):
            step()

    return restore
