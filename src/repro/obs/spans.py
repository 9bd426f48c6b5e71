"""Span recorder: the core tracing primitive, and a traced query's one
trace store.

A span is a named interval with a parent, a category and free-form
attributes.  Spans from every process of a query-process tree land in one
:class:`SpanStore`; cross-process edges (coordinator invocation -> child
call) are ordinary parent links because the recorder is shared through the
query's :class:`~repro.obs.run.QueryRun` (an OS worker records into its own,
from a disjoint id range, and ships the finished spans back).

Two clocks coexist.  Execution-side spans pass ``at=kernel.now()`` so their
timestamps live on the kernel's (possibly virtual) clock; compile-phase
spans omit ``at`` and fall back to a wall clock anchored at recorder
creation.  The exporters keep the two groups in separate Chrome "processes"
so mixed clocks never overlap visually.

What happens at a point in time is an instant in the same store: a pool
records ``spawn``, its fault reports (``call_failed``, ``redeliver``,
``respawn``, ``breaker_open``) and ``batch_flush``, an adaptive pool its
decisions (category ``adapt``), a child ``install`` and ``process_exit``,
an OWF ``retry`` and ``call_fault``.  A web-service call is a ``ws`` span
whose ``outcome`` tells a broker round trip from a memo hit.  The
process-tree, utilization and gantt views (:mod:`repro.render`)
and the Figs 18-20 bench derive what they show from these; the statistics
on a query result are counters and do not.

``NULL_RECORDER`` is the default everywhere.  Its ``enabled`` flag is
``False`` and every method is a no-op returning ``-1``, so instrumentation
costs a truthiness check per site, an untraced query builds no span, and
the seed execution fingerprint is bit-for-bit unchanged when tracing is off.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterator


@dataclass
class Span:
    """One traced interval (or instant) in a query's lifetime."""

    id: int
    name: str
    category: str
    process: str
    start: float
    parent: int = -1
    end: float | None = None
    instant: bool = False
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def finished(self) -> bool:
        return self.instant or self.end is not None


class SpanStore:
    """Append-only collection of spans with parent/child indexing."""

    def __init__(self) -> None:
        self._spans: list[Span] = []
        self._by_id: dict[int, Span] = {}

    def add(self, span: Span) -> None:
        self._spans.append(span)
        self._by_id[span.id] = span

    def get(self, span_id: int) -> Span | None:
        return self._by_id.get(span_id)

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self._spans)

    def roots(self) -> list[Span]:
        return [s for s in self._spans if s.parent == -1 or s.parent not in self._by_id]

    def children(self, span_id: int) -> list[Span]:
        return [s for s in self._spans if s.parent == span_id]

    def by_category(self, category: str) -> list[Span]:
        return [s for s in self._spans if s.category == category]

    def find(self, name: str) -> list[Span]:
        return [s for s in self._spans if s.name == name]


class NullRecorder:
    """Disabled recorder: every call is a no-op.

    Instrumentation sites test ``recorder.enabled`` before doing any work
    that allocates (building attr dicts, reading clocks), but calling the
    methods directly is also safe.
    """

    enabled = False
    store: SpanStore | None = None

    def start(self, name: str, **kwargs: Any) -> int:
        return -1

    def finish(self, span_id: int, **kwargs: Any) -> None:
        return None

    def instant(self, name: str, **kwargs: Any) -> int:
        return -1


NULL_RECORDER = NullRecorder()


class TraceRecorder(NullRecorder):
    """Live recorder collecting spans and instants into a :class:`SpanStore`.

    ``at`` timestamps are caller-supplied (kernel clock); when omitted the
    recorder falls back to wall time relative to its creation so that
    compile-phase spans start near zero like the virtual clock does.
    """

    enabled = True

    def __init__(self, first_id: int = 0) -> None:
        self.store: SpanStore = SpanStore()
        self._next_id = first_id
        self._epoch = time.perf_counter()

    def _now(self) -> float:
        return time.perf_counter() - self._epoch

    def start(
        self,
        name: str,
        *,
        category: str = "span",
        parent: int = -1,
        process: str = "",
        at: float | None = None,
        **attrs: Any,
    ) -> int:
        span_id = self._next_id
        self._next_id += 1
        self.store.add(
            Span(
                id=span_id,
                name=name,
                category=category,
                process=process,
                parent=parent,
                start=self._now() if at is None else at,
                attrs=attrs,
            )
        )
        return span_id

    def finish(self, span_id: int, *, at: float | None = None, **attrs: Any) -> None:
        span = self.store.get(span_id)
        if span is None or span.end is not None:
            return
        span.end = self._now() if at is None else at
        if attrs:
            span.attrs.update(attrs)

    def take(self) -> list[Span]:
        """Remove the finished spans recorded so far and return them (how
        an OS worker ships them to the coordinator)."""
        finished = [span for span in self.store if span.finished]
        if finished:
            still_open = SpanStore()
            for span in self.store:
                if not span.finished:
                    still_open.add(span)
            self.store = still_open
        return finished

    def instant(self, name: str, *, category: str = "event", **kwargs: Any) -> int:
        """Record a point in time: a span that ends where it starts
        (``kwargs`` as for :meth:`start`)."""
        span = self.store.get(self.start(name, category=category, **kwargs))
        span.end, span.instant = span.start, True
        return span.id
