"""Critical-path analysis over a finished query's span tree.

The paper's Figs 14-16 argue that total query time is dominated by the
slowest web service on the longest *dependent* chain of calls.  This module
reproduces that analysis from recorded spans:

- the **critical path** is extracted by starting from the root query span
  and repeatedly descending into the child span that finishes last -- in a
  dependent pipeline that is exactly the chain that gated completion;
- the **tree level** of a span is the number of ``call``-category ancestors
  above it (level 0 = web-service calls issued by the coordinator itself,
  level 1 = calls issued by first-level child processes, ...), matching the
  paper's query-process tree depth;
- per level, web-service (``ws``-category) span durations are aggregated per
  operation, and the operation with the largest total busy time at the
  slowest level is reported as the bottleneck.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.spans import Span, SpanStore


@dataclass
class LevelSummary:
    """Aggregate web-service timing for one tree level."""

    level: int
    calls: int = 0
    busy: float = 0.0
    per_operation: dict[str, float] = field(default_factory=dict)

    @property
    def slowest_operation(self) -> str:
        if not self.per_operation:
            return ""
        return max(self.per_operation.items(), key=lambda kv: (kv[1], kv[0]))[0]


@dataclass
class CriticalPathReport:
    """Longest dependent chain plus per-level bottleneck summary."""

    path: list[Span] = field(default_factory=list)
    levels: list[LevelSummary] = field(default_factory=list)
    total: float = 0.0

    @property
    def slowest_level(self) -> LevelSummary | None:
        if not self.levels:
            return None
        return max(self.levels, key=lambda lv: lv.busy)

    @property
    def slowest_service(self) -> str:
        level = self.slowest_level
        return level.slowest_operation if level is not None else ""


def _call_level(span: Span, store: SpanStore) -> int:
    """Number of ``call``-category ancestors (the query-process tree depth)."""
    level = 0
    seen: set[int] = set()
    cursor = span
    while cursor.parent != -1 and cursor.parent not in seen:
        seen.add(cursor.id)
        parent = store.get(cursor.parent)
        if parent is None:
            break
        if parent.category == "call":
            level += 1
        cursor = parent
    return level


def analyze_critical_path(store: SpanStore) -> CriticalPathReport:
    """Walk the span tree of a finished query and summarize its hot chain."""
    report = CriticalPathReport()
    roots = [s for s in store.roots() if s.category == "query" and not s.instant]
    if not roots:
        roots = [s for s in store.roots() if not s.instant]
    if not roots:
        return report
    root = max(roots, key=lambda s: s.duration)

    # Descend to the child that finishes last; span end-times order the
    # dependent chain because a parent cannot finish before its children.
    cursor = root
    report.path.append(cursor)
    while True:
        kids = [
            c
            for c in store.children(cursor.id)
            if not c.instant and c.end is not None
        ]
        if not kids:
            break
        cursor = max(kids, key=lambda s: (s.end or 0.0, s.id))
        report.path.append(cursor)
    report.total = root.duration

    levels: dict[int, LevelSummary] = {}
    for span in store.by_category("ws"):
        if span.instant or span.end is None:
            continue
        level = _call_level(span, store)
        summary = levels.setdefault(level, LevelSummary(level=level))
        summary.calls += 1
        summary.busy += span.duration
        operation = str(span.attrs.get("operation", span.name))
        summary.per_operation[operation] = (
            summary.per_operation.get(operation, 0.0) + span.duration
        )
    report.levels = [levels[k] for k in sorted(levels)]
    return report
