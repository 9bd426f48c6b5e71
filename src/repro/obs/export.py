"""Exporter: Chrome trace-event format.

The output follows the JSON-object flavour of the `Trace Event Format`_
understood by Perfetto and ``chrome://tracing``:

- every finished span becomes an ``"X"`` (complete) event with ``ts``/``dur``
  in microseconds;
- instants become ``"i"`` events;
- cross-process parent links (a child call whose parent span lives in
  another query process) become ``"s"``/``"f"`` flow events so the arrows
  are drawn across track groups;
- ``"M"`` metadata events name the processes and threads.  Spans are
  grouped into Chrome "processes" by clock domain (compile spans use wall
  time, execution spans kernel time) and into "threads" by query-process
  name (``q0``, ``q1``, ...).

.. _Trace Event Format:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import json
from typing import Any

from repro.obs.spans import Span, SpanStore

# Chrome pid values per clock domain.  Compile-phase spans run on the wall
# clock outside kernel.run(); keeping them in their own pid group means the
# two clock domains never share a timeline track.
PID_COMPILE = 1
PID_EXECUTION = 2

_CATEGORY_PIDS = {"compile": PID_COMPILE}


def _pid(span: Span) -> int:
    return _CATEGORY_PIDS.get(span.category, PID_EXECUTION)


def _us(seconds: float) -> int:
    return round(seconds * 1_000_000)


def to_chrome_trace(store: SpanStore) -> dict[str, Any]:
    """Convert a span store to a Chrome trace-event JSON object."""
    events: list[dict[str, Any]] = []

    # Deterministic tid per (pid, process name): sorted name order.
    tids: dict[tuple[int, str], int] = {}
    for pid, name in sorted({(_pid(s), s.process or "q0") for s in store}):
        tids[(pid, name)] = sum(1 for key in tids if key[0] == pid) + 1

    seen_pids = sorted({pid for pid, _ in tids})
    pid_names = {PID_COMPILE: "compile", PID_EXECUTION: "execution"}
    for pid in seen_pids:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": pid_names.get(pid, f"group{pid}")},
            }
        )
    for (pid, name), tid in sorted(tids.items()):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": name},
            }
        )

    def locate(span: Span) -> tuple[int, int]:
        pid = _pid(span)
        return pid, tids[(pid, span.process or "q0")]

    flow_id = 0
    for span in store:
        pid, tid = locate(span)
        args = {"span_id": span.id, "parent": span.parent}
        args.update(span.attrs)
        if span.instant:
            events.append(
                {
                    "name": span.name,
                    "cat": span.category,
                    "ph": "i",
                    "s": "t",
                    "ts": _us(span.start),
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                }
            )
            continue
        if span.end is None:
            continue
        events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": _us(span.start),
                "dur": max(_us(span.end) - _us(span.start), 0),
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
        parent = store.get(span.parent) if span.parent != -1 else None
        if parent is not None and parent.process != span.process:
            # Cross-process parent link: draw a flow arrow from the parent
            # span's start to the child span's start.
            flow_id += 1
            ppid, ptid = locate(parent)
            link = {"cat": "flow", "name": "link", "id": flow_id}
            events.append(
                {
                    **link,
                    "ph": "s",
                    "ts": _us(parent.start),
                    "pid": ppid,
                    "tid": ptid,
                }
            )
            events.append(
                {
                    **link,
                    "ph": "f",
                    "bp": "e",
                    "ts": _us(span.start),
                    "pid": pid,
                    "tid": tid,
                }
            )

    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(store: SpanStore, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_chrome_trace(store), fh, indent=1)
        fh.write("\n")
