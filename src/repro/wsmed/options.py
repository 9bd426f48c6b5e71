"""The unified per-query options object.

Every per-query planning and execution knob lives in one frozen
dataclass, :class:`QueryOptions`, accepted by :meth:`WSMED.sql` /
:meth:`WSMED.plan` / :meth:`WSMED.explain`, by
:meth:`~repro.engine.QueryEngine.sql` / ``sql_async`` / ``sql_many``,
by the CLI, and (as a nested JSON object) by the HTTP front end's
``POST /sql``.

It is the only way to set them::

    wsmed.sql(q, options=QueryOptions(mode="adaptive", retries=2))

Some fields only make sense on one surface: ``kernel`` and ``observed``
are rejected by the resident engine (which owns its kernel and feeds the
cost model its own statistics), and ``tenant`` / ``deadline_ms`` are
engine-level admission knobs rejected by the one-shot :meth:`WSMED.sql`
path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from repro.algebra.plan import AdaptationParams
from repro.cache import CacheConfig
from repro.parallel.costs import ProcessCosts
from repro.parallel.faults import FaultInjection
from repro.util.errors import PlanError


@dataclass(frozen=True)
class QueryOptions:
    """All per-query knobs; every field has the surface's old default.

    Planning:
      ``mode``           execution mode (``central``/``parallel``/``adaptive``).
      ``fanouts``        manual FF_APPLYP fanout vector (parallel mode).
      ``adaptation``     AFF_APPLYP parameters (adaptive mode).
      ``name``           query name for traces and reports.
      ``optimize``       ``"heuristic"`` (seed default) or ``"cost"``.
      ``observed``       measured (call cost, fanout) overlay for the
                         cost model (one-shot :meth:`WSMED.sql` only; the
                         resident engine feeds its own statistics).

    Execution:
      ``retries``        per-call retries of retriable service faults.
      ``cache``          per-query web-service call cache configuration.
      ``process_costs``  process cost model override (batching etc.).
      ``on_error``       pools' policy for a failed call: ``fail`` (the
                         paper's: abort the tree), ``retry`` (redeliver the
                         row, see ``ProcessCosts.max_redeliveries``) or
                         ``skip`` (drop and count it).
      ``faults``         every injected fault (``FaultInjection``).
      ``obs``            a TraceRecorder for span tracing.

    One-shot only (:meth:`WSMED.sql`):
      ``kernel``         execution kernel (defaults to a fresh SimKernel).

    Engine only (:class:`~repro.engine.QueryEngine`):
      ``tenant``         fair-queue admission identity.
      ``deadline_ms``    admission deadline in model milliseconds.
    """

    mode: object = "central"  # ExecutionMode | str (typed loosely: the
    # enum lives in repro.wsmed.system, which imports this module)
    fanouts: Optional[list] = None
    adaptation: Optional[AdaptationParams] = None
    retries: int = 0
    cache: Optional[CacheConfig] = None
    process_costs: Optional[ProcessCosts] = None
    on_error: str = "fail"
    faults: Optional[FaultInjection] = None
    name: str = "Query"
    obs: Optional[object] = None
    optimize: str = "heuristic"
    observed: Optional[dict] = None
    kernel: Optional[object] = None
    tenant: str = "default"
    deadline_ms: Optional[float] = None

    def __post_init__(self) -> None:
        # These arrive from POST /sql JSON and shell arguments: reject a
        # bad value here, as a PlanError, before any query runs.
        if self.fanouts is not None and not (
            isinstance(self.fanouts, (list, tuple))
            and all(_is_count(fanout) for fanout in self.fanouts)
        ):
            raise PlanError(
                f"fanouts must be a list of integers >= 0, got {self.fanouts!r}"
            )
        if not _is_count(self.retries):
            raise PlanError(f"retries must be an integer >= 0, got {self.retries!r}")
        if self.on_error not in ("fail", "retry", "skip"):
            raise PlanError(
                f"unknown on_error policy {self.on_error!r}; "
                "use fail, retry or skip"
            )
        if not isinstance(self.name, str):
            raise PlanError(f"name must be a string, got {self.name!r}")
        if self.optimize not in ("heuristic", "cost"):
            raise PlanError(
                f"unknown optimize level {self.optimize!r}; use heuristic or cost"
            )
        if not (isinstance(self.tenant, str) and self.tenant.strip()):
            raise PlanError(f"tenant must be a non-blank string, got {self.tenant!r}")
        if self.deadline_ms is not None and not (
            _is_number(self.deadline_ms)
            and math.isfinite(self.deadline_ms)
            and self.deadline_ms > 0
        ):
            raise PlanError(
                f"deadline_ms must be a finite number > 0, got {self.deadline_ms!r}"
            )

    def replace(self, **overrides) -> "QueryOptions":
        """A copy with the given fields changed (field names validated)."""
        return replace(self, **overrides)


def _is_count(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: Fields only the one-shot WSMED.sql surface honors.
ONE_SHOT_ONLY = frozenset({"kernel"})
#: Fields only the resident engine honors.
ENGINE_ONLY = frozenset({"tenant", "deadline_ms"})


_DEFAULTS = QueryOptions()


def resolve_options(
    options: QueryOptions | None,
    *,
    where: str,
    rejected: frozenset = frozenset(),
) -> QueryOptions:
    """``options`` (or the defaults), checked against this surface.

    ``rejected`` lists fields the surface ``where`` does not support:
    setting one (to a non-default value) raises
    :class:`~repro.util.errors.PlanError`.
    """
    if options is None:
        return _DEFAULTS
    if not isinstance(options, QueryOptions):
        raise PlanError(
            f"{where} options must be a QueryOptions, got {type(options).__name__}"
        )
    for name in rejected:
        if getattr(options, name) != getattr(_DEFAULTS, name):
            raise PlanError(f"{where} does not support the {name!r} option")
    return options
