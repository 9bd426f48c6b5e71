"""Parallel query execution: process trees, ``FF_APPLYP`` and ``AFF_APPLYP``.

This subpackage implements the paper's contribution:

* :mod:`repro.parallel.parallelizer` — rewrites a central plan into a
  parallel one by splitting it into sections at parallelizable OWFs,
  generating plan functions (PF1-PF4 of Figs 7/8/11/12) and nesting them
  under ``FF_APPLYP``/``AFF_APPLYP`` operators (Figs 9/13);
* :mod:`repro.parallel.process` — the child query process: receives a
  shipped plan function, then executes it for one parameter tuple at a
  time, streaming results and end-of-call messages back (Sec. III.A);
* :mod:`repro.parallel.ff_applyp` — the ``FF_APPLYP`` operator runtime:
  first-finished dispatch of parameter tuples over a persistent pool of
  children;
* :mod:`repro.parallel.aff_applyp` — the adaptive ``AFF_APPLYP`` runtime:
  binary init stage, monitoring cycles, add and drop stages (Sec. V.A);
* :mod:`repro.parallel.pools` — installs the pool acquirer the plan
  interpreter asks for each parallel operator's pool, and closes (or
  releases to a resident engine) a query's pools at its end.
"""

from repro.parallel.costs import ProcessCosts
from repro.parallel.faults import FaultInjection
from repro.parallel.parallelizer import parallelize, split_sections

__all__ = [
    "ProcessCosts",
    "FaultInjection",
    "parallelize",
    "split_sections",
]
