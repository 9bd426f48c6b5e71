"""Structured event log.

On a traced run the adaptive operator and the process tree record their
decisions (spawn, add stage, drop stage, monitoring-cycle measurements) as
events in the query recorder's log (``TraceRecorder.events``).  The
benchmark for Figs 18-20 and the adaptation tests read these back, so the
log is structured data rather than text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event: a virtual timestamp, a kind tag and payload."""

    time: float
    kind: str
    data: dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:  # compact, for test failure output
        payload = ", ".join(f"{k}={v!r}" for k, v in sorted(self.data.items()))
        return f"TraceEvent({self.time:.3f}, {self.kind}, {payload})"


class TraceLog:
    """Append-only event log with simple filtered views."""

    def __init__(self) -> None:
        self._events: list[TraceEvent] = []

    def record(self, time: float, kind: str, **data: Any) -> None:
        self._events.append(TraceEvent(time, kind, data))

    def extend(self, events: list[TraceEvent]) -> None:
        """Append events recorded elsewhere (another process's log)."""
        self._events.extend(events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def events(self, kind: str | None = None) -> list[TraceEvent]:
        """All events, or only those with the given kind tag."""
        if kind is None:
            return list(self._events)
        return [event for event in self._events if event.kind == kind]

