"""Compiled-plan cache for the resident query engine.

Compiling a query (parse -> calculus -> central plan -> parallelize) is
pure CPU work that depends only on ``(sql_text, mode, fanouts,
adaptation, name)`` and on the function definitions the plan applies.
The cache memoizes the compiled plan under a stable fingerprint of the
former; the latter cannot change under it, because the engine freezes
its catalogue (see :meth:`~repro.fdb.functions.FunctionRegistry.freeze`).

Reusing the compiled plan object is also what makes warm child-pool
reuse sound: pool fingerprints (see :mod:`repro.engine.pools`) include
the plan function's serialized form with its stable ``node_id``s, and
only a cached plan reproduces those — a recompiled plan gets fresh
node ids and therefore cold-starts its pools.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.algebra.plan import AdaptationParams, PlanNode
from repro.util.errors import PlanError


@dataclass
class CompiledPlan:
    """A cached compilation result.

    Cost-optimized compilations also carry the optimizer's planning
    ``assumptions`` — per-function ``(call cost, fanout)`` the cost model
    used — and its :class:`~repro.algebra.optimizer.OptimizerReport`.
    The engine compares live :class:`~repro.services.broker.CallStats`
    against the assumptions and re-optimizes the entry when they drift.
    """

    plan: PlanNode
    optimize: str = "heuristic"
    assumptions: dict[str, tuple[float, float]] | None = None
    report: object | None = None


@dataclass
class PlanCacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0  # entries dropped by the LRU bound


class PlanCache:
    """LRU cache of :class:`CompiledPlan` keyed by query fingerprint."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise PlanError(f"plan cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.stats = PlanCacheStats()
        self._entries: "OrderedDict[tuple, CompiledPlan]" = OrderedDict()

    @staticmethod
    def fingerprint(
        sql_text: str,
        mode,
        fanouts: list[int] | None,
        adaptation: AdaptationParams | None,
        name: str,
        optimize: str = "heuristic",
    ) -> tuple:
        """Stable cache key for one compilation request.

        SQL text is whitespace-normalized (query text pasted with
        different indentation is the same query); everything else is
        taken structurally — ``fanouts`` only in parallel mode, the one
        mode whose plan it shapes.  :class:`AdaptationParams` is frozen,
        hence hashable.  ``optimize`` keys heuristic and cost-based
        compilations separately, so switching levels never serves a
        stale plan shape.
        """
        mode_value = mode.value if hasattr(mode, "value") else str(mode)
        return (
            " ".join(sql_text.split()),
            mode_value,
            tuple(fanouts)
            if fanouts is not None and mode_value == "parallel"
            else None,
            adaptation,
            name,
            optimize,
        )

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> CompiledPlan | None:
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def put(self, key: tuple, compiled: CompiledPlan) -> None:
        self._entries[key] = compiled
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
