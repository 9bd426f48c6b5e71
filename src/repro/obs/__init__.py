"""Span-based tracing for the query stack.

The subsystem has four layers:

- :mod:`repro.obs.run` -- ``QueryRun``, the per-query object every process
  of a query counts into (call recorder; cache, message, tree and fault
  counters; span recorder), shared by reference and drained across OS
  workers.
- :mod:`repro.obs.spans` -- the recorder API.  ``TraceRecorder`` collects
  :class:`Span` records (intervals and instants) into a :class:`SpanStore`,
  a traced query's one trace store; ``NULL_RECORDER`` is the shared no-op
  default so instrumentation sites cost one attribute check when tracing
  is off.
- :mod:`repro.obs.critical_path` -- walks a finished span tree and reports
  the longest dependent chain per query-process tree level (the paper's
  "slowest service dominates" analysis).
- :mod:`repro.obs.export` / :mod:`repro.obs.validate` -- the Chrome
  trace-event exporter plus structural well-formedness checks (also used
  by CI on a real exported trace).
"""

from repro.obs.critical_path import CriticalPathReport, LevelSummary, analyze_critical_path
from repro.obs.export import to_chrome_trace, write_chrome_trace
from repro.obs.spans import (
    NULL_RECORDER,
    NullRecorder,
    Span,
    SpanStore,
    TraceRecorder,
)
from repro.obs.validate import validate_chrome_trace, validate_spans

__all__ = [
    "NULL_RECORDER",
    "CriticalPathReport",
    "LevelSummary",
    "NullRecorder",
    "Span",
    "SpanStore",
    "TraceRecorder",
    "analyze_critical_path",
    "to_chrome_trace",
    "validate_chrome_trace",
    "validate_spans",
    "write_chrome_trace",
]
