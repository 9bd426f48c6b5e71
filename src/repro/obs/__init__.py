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
- :mod:`repro.obs.validate` -- structural well-formedness checks of a
  span store and of its Chrome trace-event export (also used by CI on a
  real exported trace).

Every text or trace JSON made from spans -- the process tree, the
critical path, the Chrome trace-event export -- is a function of
:mod:`repro.render`.
"""

from repro.obs.critical_path import CriticalPathReport, LevelSummary, analyze_critical_path
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
    "validate_chrome_trace",
    "validate_spans",
]
