"""In-memory spans around calls into the layers of :mod:`repro`.

Every span has a name, start, end, parent and group id; all spans of
one sample or job share the group.  Spans stay in memory and are
written out once, when the run ends.  A span's self time is its
duration minus the part of it that its child spans cover.

The wrappers live here, outside the package: :func:`instrument` swaps
public functions and methods for timed versions for the duration of a
``with`` block and restores them afterwards.  Nothing under ``src/``
changes.  The plain run uses :data:`NULL`, whose spans cost one no-op
context manager per coarse call.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    group: str | None
    thread: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans and boundary counts; thread-safe."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: group id -> span that owns spans of the group opened on
        #: threads with no span of their own (engine and HTTP threads).
        self._roots: dict[str, int] = {}

    def _stack(self) -> list[tuple[int, str | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def bind(self, group: str, span_id: int) -> None:
        """Make *span_id* the parent of cross-thread spans of *group*."""
        with self._lock:
            self._roots[group] = span_id

    def current(self) -> int | None:
        """The innermost open span of the calling thread."""
        stack = self._stack()
        return stack[-1][0] if stack else None

    @contextmanager
    def span(self, name: str, group: str | None = None,
             parent: int | None = None):
        stack = self._stack()
        if parent is None and stack:
            parent, outer_group = stack[-1]
            group = group or outer_group
        elif parent is None and group:
            with self._lock:
                parent = self._roots.get(group)
        with self._lock:
            span_id = next(self._ids)
        stack.append((span_id, group))
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(span_id, name, start, end, parent, group,
                        threading.current_thread().name)
            with self._lock:
                self.spans.append(span)

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def add_span(self, name: str, start: float, end: float,
                 parent: Span) -> None:
        """Record a span derived after the fact from other spans, as a
        child of *parent* on its thread and in its group."""
        with self._lock:
            self.spans.append(Span(next(self._ids), name, start, end,
                                   parent.id, parent.group, parent.thread))

    def wrap(self, fn, name: str, group_of=None, on_result=None):
        """*fn* timed under span *name*; *group_of(args)* names the
        group when the calling thread has no open span, and
        *on_result* sees every return value."""

        def timed(*args, **kwargs):
            group = group_of(args) if group_of is not None else None
            with self.span(name, group):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        timed.__wrapped__ = fn
        return timed

    # -- analysis ------------------------------------------------------------

    def self_seconds(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children."""
        children: dict[int, list[tuple[float, float]]] = {}
        by_id = {span.id: span for span in self.spans}
        for span in self.spans:
            if span.parent in by_id:
                children.setdefault(span.parent, []).append(
                    (span.start, span.end)
                )
        result = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for start, end in sorted(children.get(span.id, ())):
                start, end = max(start, cursor), min(end, span.end)
                if end > start:
                    covered += end - start
                    cursor = end
            result[span.id] = span.seconds - covered
        return result

    def totals(self) -> dict[str, tuple[float, float, int]]:
        """Span name -> (inclusive seconds, self seconds, calls)."""
        own = self.self_seconds()
        table: dict[str, list] = {}
        for span in self.spans:
            row = table.setdefault(span.name, [0.0, 0.0, 0])
            row[0] += span.seconds
            row[1] += own[span.id]
            row[2] += 1
        return {name: tuple(row) for name, row in table.items()}

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps(asdict(span)) + "\n")


class _NullRecorder:
    """The plain run's recorder: spans and counts cost nothing."""

    enabled = False

    def span(self, name: str, group: str | None = None,
             parent: int | None = None):
        return nullcontext()

    def add(self, name: str, value: float) -> None:
        pass

    def bind(self, group: str, span_id) -> None:
        pass


NULL = _NullRecorder()


@contextmanager
def instrument(recorder: Recorder, targets):
    """Replace each ``(owner, attribute, span name, group_of,
    on_result)`` target with a timed wrapper while the block runs."""
    saved = []
    try:
        for owner, attr, name, group_of, on_result in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr,
                    recorder.wrap(original, name, group_of, on_result))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
