"""Clocks, process-tree accounting, percentiles and the benchmark's spans.

Everything here measures the system *from outside*: wall and CPU clocks
around calls into public functions, ``/proc`` for the processes the system
starts.  Spans inside ``src/`` are a later issue.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from contextlib import contextmanager

_TICK = os.sysconf("SC_CLK_TCK")


def descendants(pid: int) -> list[int]:
    """``pid``'s live descendant processes (children, grandchildren, ...)."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                # Fields after the parenthesized command name: state, ppid...
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # exited while we were listing
        children.setdefault(int(fields[1]), []).append(int(entry))
    found, frontier = [], [pid]
    while frontier:
        frontier = [c for parent in frontier for c in children.get(parent, [])]
        found.extend(frontier)
    return found


def cpu_seconds(pids: list[int]) -> float:
    """User + system CPU seconds consumed so far by the given processes."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        total += int(fields[11]) + int(fields[12])  # utime + stime
    return total / _TICK


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of the processes' peak resident set sizes (``VmHWM``) in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def tail(samples: list[float]) -> tuple[float, float]:
    """``(percentile, value)``: p95, or — with fewer than 200 samples — the
    highest percentile that still has ten samples beyond it (the maximum
    when there are ten or fewer)."""
    if not samples:
        return 100.0, 0.0
    ordered = sorted(samples)
    count = len(ordered)
    if count <= 10:
        return 100.0, ordered[-1]
    rank = min(math.ceil(0.95 * count), count - 10)
    return 100.0 * rank / count, ordered[rank - 1]


class Tracer:
    """The benchmark's own spans, kept in memory and written at the end.

    Each span has a name, start and end (seconds on ``time.perf_counter``),
    the id of the span that caused it and a query id shared by the spans of
    one request.  A disabled tracer records nothing.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._lock = threading.Lock()  # http_serve records from two threads

    def add(
        self, name: str, start: float, end: float, parent: int = -1, query: int = -1
    ) -> int:
        if not self.enabled:
            return -1
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(
                {
                    "id": span_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "query": query,
                }
            )
        return span_id

    @contextmanager
    def span(self, name: str, parent: int = -1, query: int = -1):
        """Record the enclosed block; yields the new span's id."""
        if not self.enabled:
            yield -1
            return
        span_id = self.add(name, time.perf_counter(), 0.0, parent, query)
        try:
            yield span_id
        finally:
            self.spans[span_id]["end"] = time.perf_counter()

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"clock": "perf_counter_s", "spans": self.spans}, handle)
