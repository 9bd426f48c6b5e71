"""Cost-based central plan optimizer.

The heuristic builder (:mod:`repro.algebra.central`) keeps web-service
calls in query order — correct, but routinely wrong-way-round when an
expensive high-fanout service is named before a cheap selective one.
This module searches dependency-respecting orderings and bushy join
shapes and costs them with :class:`~repro.algebra.cost.CostModel`:

* **Chain ordering** — per connected component, dynamic programming over
  subsets of predicates (the classic DP-over-sets join ordering, adapted
  to binding-pattern feasibility: a predicate may only be placed once
  its input variables are produced).  Cardinality is set-determined —
  the product of placed fanouts times the selectivity of every filter
  that has become applicable — so the DP is exact for the cost model.
  Components larger than :data:`DP_LIMIT` fall back to greedy ordering with
  bounded lookahead.

* **Bushy joins** — independent components are combined by a second DP
  over connected sub-sets of components, minimizing intermediate join
  cardinality, instead of the heuristic's left-deep query-order chain.
  This also plans queries the heuristic rejects: a left-deep walk fails
  when the next component in query order shares no equality predicate
  with the accumulated plan even though another component does.

The optimizer never changes *what* a plan computes, only the order and
shape; equivalence tests compare row bags against the heuristic plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebra.central import _Builder, create_central_plan
from repro.algebra.cost import CostModel, PlanEstimate, estimate_plan
from repro.algebra.expressions import expr_from_calculus
from repro.algebra.plan import FilterNode, JoinNode, PlanNode
from repro.calculus.expressions import (
    CalculusQuery,
    FilterPredicate,
    FunctionPredicate,
    Var,
)
from repro.calculus.rewrite import AppliedRewrite
from repro.fdb.functions import FunctionKind, FunctionRegistry
from repro.util.errors import BindingError


# Search-space bounds.
#: Max predicates per component for exact subset DP; larger components
#: use greedy ordering that looks LOOKAHEAD placements ahead.
DP_LIMIT = 12
LOOKAHEAD = 2
#: Max independent components for the bushy join DP; beyond it, a
#: connectivity-aware left-deep walk.
JOIN_DP_LIMIT = 8


@dataclass
class ComponentChoice:
    """How one dependent chain was ordered, for explain output."""

    functions: tuple[str, ...]  # "alias:function" in chosen order
    heuristic_functions: tuple[str, ...]  # same, heuristic order ("" if n/a)
    strategy: str  # "dp" | "greedy" | "fixed"
    subsets_explored: int
    estimated_cost: float  # OWF seconds for the chosen order
    heuristic_cost: float | None  # same for the heuristic order


@dataclass
class OptimizerReport:
    """Everything the optimizer decided, and why."""

    components: list[ComponentChoice] = field(default_factory=list)
    join_shape: str = ""  # rendered tree, e.g. "((gp ⋈ t) ⋈ z)"
    join_strategy: str = ""  # "dp" | "left-deep" | "single"
    rewrites: list[AppliedRewrite] = field(default_factory=list)
    assumptions: dict[str, tuple[float, float]] = field(default_factory=dict)
    estimate: PlanEstimate | None = None
    heuristic_estimate: PlanEstimate | None = None


def create_cost_based_plan(
    calculus: CalculusQuery,
    registry: FunctionRegistry,
    model: CostModel | None = None,
    rewrites: list[AppliedRewrite] | None = None,
) -> tuple[PlanNode, OptimizerReport]:
    """Build a cost-optimized central plan plus a report of the choices.

    ``calculus`` must have no unbound variables (run
    :func:`repro.calculus.rewrite.rewrite_unfittable` first).
    """
    model = model or CostModel()
    builder = _CostBuilder(calculus, registry, model)
    plan = builder.build()
    report = builder.report
    report.rewrites = list(rewrites or [])
    functions = {
        p.function
        for p in calculus.function_predicates()
        if registry.resolve(p.function).kind is FunctionKind.OWF
    }
    report.assumptions = model.assumptions_for(functions)
    report.estimate = estimate_plan(plan, registry, model)
    try:
        heuristic_plan = create_central_plan(calculus, registry)
    except BindingError:
        report.heuristic_estimate = None
    else:
        report.heuristic_estimate = estimate_plan(heuristic_plan, registry, model)
    return plan, report


class _CostBuilder(_Builder):
    """A central-plan builder that follows cost-chosen orders and shapes.

    Reuses every operator-construction detail of the heuristic builder
    (pre-apply pruning, concat maps, eager filters, post-processing) so
    plans differ only in predicate order and join shape.
    """

    def __init__(
        self,
        calculus: CalculusQuery,
        registry: FunctionRegistry,
        model: CostModel,
    ) -> None:
        super().__init__(calculus, registry)
        self.model = model
        self.report = OptimizerReport()
        self._positions: dict[int, int] = {}  # id(predicate) -> chosen slot

    # -- entry point -------------------------------------------------------------

    def build(self) -> PlanNode:
        components = self._components()
        cross_filters = self._cross_filters(components)
        ordered_components = []
        for component in components:
            order = self._optimize_component(
                component, self._component_filters(component)
            )
            for position, predicate in enumerate(order):
                self._positions[id(predicate)] = position
            ordered_components.append(order)
        chains = [
            self._build_chain(
                component, self._component_filters(component), cross_filters
            )
            for component in ordered_components
        ]
        plan = self._bushy_join(chains, ordered_components, cross_filters)
        plan = self._project_head(plan)
        return self._post_process(plan)

    def _pick_next(
        self, remaining: list[FunctionPredicate], available: set[str]
    ) -> FunctionPredicate:
        for predicate in sorted(
            remaining, key=lambda p: self._positions.get(id(p), 0)
        ):
            if {v.name for v in predicate.input_variables()} <= available:
                return predicate
        return super()._pick_next(remaining, available)  # diagnostics path

    # -- chain ordering ----------------------------------------------------------

    def _optimize_component(
        self,
        component: list[FunctionPredicate],
        filters: list[FilterPredicate],
    ) -> list[FunctionPredicate]:
        n = len(component)
        heuristic = self._heuristic_order(component)
        if n <= 1:
            order = list(component)
            self._record_choice(order, heuristic, "fixed", 0, filters)
            return order
        if n <= DP_LIMIT:
            order, explored = self._dp_order(component, filters)
            strategy = "dp"
        else:
            order, explored = self._greedy_order(component, filters)
            strategy = "greedy"
        if order is None:
            # No feasible ordering; keep query order so _pick_next's base
            # diagnostics fire with the standard BindingError.
            order = list(component)
            strategy = "fixed"
        self._record_choice(order, heuristic, strategy, explored, filters)
        return order

    def _record_choice(
        self,
        order: list[FunctionPredicate],
        heuristic: list[FunctionPredicate] | None,
        strategy: str,
        explored: int,
        filters: list[FilterPredicate],
    ) -> None:
        cost, _ = self._simulate_chain(order, filters)
        heuristic_cost = None
        heuristic_names: tuple[str, ...] = ()
        if heuristic is not None:
            heuristic_cost, _ = self._simulate_chain(heuristic, filters)
            heuristic_names = tuple(
                f"{p.alias}:{p.function}" for p in heuristic
            )
        self.report.components.append(
            ComponentChoice(
                functions=tuple(f"{p.alias}:{p.function}" for p in order),
                heuristic_functions=heuristic_names,
                strategy=strategy,
                subsets_explored=explored,
                estimated_cost=cost,
                heuristic_cost=heuristic_cost,
            )
        )

    def _simulate_chain(
        self, order: list[FunctionPredicate], filters: list[FilterPredicate]
    ) -> tuple[float, float]:
        """(OWF seconds, output cardinality) of executing ``order``.

        Mirrors :func:`estimate_plan` over the chain the builder will
        emit: calls are driven by the filtered input cardinality, and
        each filter applies at the earliest point its variables exist.
        """
        available: set[str] = set()
        pending = list(filters)
        cardinality = 1.0
        cost = 0.0
        for predicate in order:
            function = self.registry.resolve(predicate.function)
            if function.kind is FunctionKind.OWF:
                cost += cardinality * self.model.call_cost(function.name)
            cardinality *= self.model.fanout(predicate.function)
            available |= {v.name for v in predicate.outputs}
            still_pending = []
            for filter_predicate in pending:
                needed = {v.name for v in filter_predicate.input_variables()}
                if needed <= available:
                    cardinality *= self.model.selectivity
                else:
                    still_pending.append(filter_predicate)
            pending = still_pending
        return cost, cardinality

    def _heuristic_order(
        self, component: list[FunctionPredicate]
    ) -> list[FunctionPredicate] | None:
        """The order the heuristic builder would pick (None if stuck)."""
        remaining = list(component)
        available: set[str] = set()
        order = []
        while remaining:
            eligible = [
                p
                for p in remaining
                if {v.name for v in p.input_variables()} <= available
            ]
            if not eligible:
                return None
            cheap = [
                p
                for p in eligible
                if self.registry.resolve(p.function).kind is not FunctionKind.OWF
            ]
            picked = (cheap or eligible)[0]
            order.append(picked)
            remaining.remove(picked)
            available |= {v.name for v in picked.outputs}
        return order

    def _dp_order(
        self, component: list[FunctionPredicate], filters: list[FilterPredicate]
    ) -> tuple[list[FunctionPredicate] | None, int]:
        """Exact subset DP.  Returns (order, subsets explored)."""
        n = len(component)
        out_vars = [{v.name for v in p.outputs} for p in component]
        in_vars = [{v.name for v in p.input_variables()} for p in component]
        fanouts = [self.model.fanout(p.function) for p in component]
        costs = [
            self.model.call_cost(p.function)
            if self.registry.resolve(p.function).kind is FunctionKind.OWF
            else 0.0
            for p in component
        ]
        filter_vars = [{v.name for v in f.input_variables()} for f in filters]
        size = 1 << n
        infinity = float("inf")
        # Set-determined state: produced variables and filtered cardinality.
        produced: list[set[str]] = [set()] * size
        cardinality = [1.0] * size
        best = [infinity] * size
        last = [-1] * size
        best[0] = 0.0
        for mask in range(1, size):
            low = (mask & -mask).bit_length() - 1
            previous = mask ^ (1 << low)
            produced[mask] = produced[previous] | out_vars[low]
            # The filtered cardinality is a function of the set, not the
            # order: placed fanouts times selectivity per applicable filter.
            applicable = sum(
                1 for needed in filter_vars if needed <= produced[mask]
            )
            raw = 1.0
            for i in range(n):
                if mask & (1 << i):
                    raw *= fanouts[i]
            cardinality[mask] = raw * (self.model.selectivity**applicable)
        explored = 0
        for mask in range(1, size):
            for i in range(n):
                bit = 1 << i
                if not mask & bit:
                    continue
                previous = mask ^ bit
                if best[previous] == infinity:
                    continue
                if not in_vars[i] <= produced[previous]:
                    continue
                candidate = best[previous] + cardinality[previous] * costs[i]
                # `<=` + ascending i: on exact ties the highest index is
                # placed last, keeping earlier query positions earlier.
                if candidate < best[mask] or (
                    candidate == best[mask] and i > last[mask]
                ):
                    best[mask] = candidate
                    last[mask] = i
            if best[mask] < infinity:
                explored += 1
        full = size - 1
        if best[full] == infinity:
            return None, explored
        order_indices = []
        mask = full
        while mask:
            i = last[mask]
            order_indices.append(i)
            mask ^= 1 << i
        order_indices.reverse()
        return [component[i] for i in order_indices], explored

    def _greedy_order(
        self, component: list[FunctionPredicate], filters: list[FilterPredicate]
    ) -> tuple[list[FunctionPredicate] | None, int]:
        """Greedy with bounded lookahead for large components."""
        n = len(component)
        out_vars = [{v.name for v in p.outputs} for p in component]
        in_vars = [{v.name for v in p.input_variables()} for p in component]
        fanouts = [self.model.fanout(p.function) for p in component]
        costs = [
            self.model.call_cost(p.function)
            if self.registry.resolve(p.function).kind is FunctionKind.OWF
            else 0.0
            for p in component
        ]
        filter_vars = [{v.name for v in f.input_variables()} for f in filters]
        explored = 0

        def filtered(cardinality: float, produced: set[str], used: set[int]):
            still = set(used)
            for index, needed in enumerate(filter_vars):
                if index not in used and needed <= produced:
                    cardinality *= self.model.selectivity
                    still.add(index)
            return cardinality, still

        def lookahead_cost(
            placed: set[int],
            produced: set[str],
            cardinality: float,
            used_filters: set[int],
            depth: int,
        ) -> float:
            nonlocal explored
            if depth == 0 or len(placed) == n:
                return 0.0
            best_extra = float("inf")
            for i in range(n):
                if i in placed or not in_vars[i] <= produced:
                    continue
                explored += 1
                step = cardinality * costs[i]
                next_produced = produced | out_vars[i]
                next_cardinality, next_used = filtered(
                    cardinality * fanouts[i], next_produced, used_filters
                )
                extra = step + lookahead_cost(
                    placed | {i},
                    next_produced,
                    next_cardinality,
                    next_used,
                    depth - 1,
                )
                best_extra = min(best_extra, extra)
            return 0.0 if best_extra == float("inf") else best_extra

        order_indices: list[int] = []
        placed: set[int] = set()
        produced: set[str] = set()
        used_filters: set[int] = set()
        cardinality = 1.0
        while len(placed) < n:
            best_index = -1
            best_score = float("inf")
            for i in range(n):
                if i in placed or not in_vars[i] <= produced:
                    continue
                step = cardinality * costs[i]
                next_produced = produced | out_vars[i]
                next_cardinality, next_used = filtered(
                    cardinality * fanouts[i], next_produced, used_filters
                )
                score = step + lookahead_cost(
                    placed | {i},
                    next_produced,
                    next_cardinality,
                    next_used,
                    LOOKAHEAD - 1,
                )
                if score < best_score:  # ties keep query order (first wins)
                    best_score = score
                    best_index = i
            if best_index < 0:
                return None, explored
            order_indices.append(best_index)
            placed.add(best_index)
            produced |= out_vars[best_index]
            cardinality, used_filters = filtered(
                cardinality * fanouts[best_index], produced, used_filters
            )
        return [component[i] for i in order_indices], explored

    # -- bushy joins -------------------------------------------------------------

    def _bushy_join(
        self,
        chains: list[PlanNode],
        components: list[list[FunctionPredicate]],
        cross_filters: list[FilterPredicate],
    ) -> PlanNode:
        if len(chains) == 1:
            self.report.join_strategy = "single"
            return self._join_components(chains, components, cross_filters)
        component_vars = [self._component_vars(c) for c in components]
        cards = [
            self._simulate_chain(
                components[i], self._component_filters(components[i])
            )[1]
            for i in range(len(components))
        ]
        if len(chains) <= JOIN_DP_LIMIT:
            shape = self._join_dp(component_vars, cards, cross_filters)
            self.report.join_strategy = "dp"
        else:
            shape = self._join_left_deep(component_vars, cross_filters)
            self.report.join_strategy = "left-deep"
        if shape is None:
            raise BindingError(
                "independent service chains must be connected by at "
                "least one equality predicate (cartesian products over "
                "web services are not supported)"
            )
        self.report.join_shape = self._render_shape(shape, components)
        pending = list(cross_filters)
        plan, pending = self._build_shape(shape, chains, pending)
        if pending:
            unmet = "; ".join(str(f) for f in pending)
            raise BindingError(f"filters reference unavailable columns: {unmet}")
        return plan

    @staticmethod
    def _connected(
        a_vars: set[str], b_vars: set[str], cross_filters: list[FilterPredicate]
    ) -> bool:
        for predicate in cross_filters:
            if predicate.op != "=":
                continue
            left, right = predicate.left, predicate.right
            if not (isinstance(left, Var) and isinstance(right, Var)):
                continue
            if (left.name in a_vars and right.name in b_vars) or (
                right.name in a_vars and left.name in b_vars
            ):
                return True
        return False

    def _join_dp(
        self,
        component_vars: list[set[str]],
        cards: list[float],
        cross_filters: list[FilterPredicate],
    ):
        """DP over connected component subsets, minimizing the sum of
        intermediate join cardinalities.  Returns a nested-tuple shape of
        component indices, or None when the full set is unjoinable."""
        n = len(component_vars)
        size = 1 << n
        mask_vars = [
            set().union(
                *(component_vars[i] for i in range(n) if mask & (1 << i))
            )
            if mask
            else set()
            for mask in range(size)
        ]
        best: list[tuple[float, float, object] | None] = [None] * size
        for i in range(n):
            best[1 << i] = (0.0, cards[i], i)
        for mask in range(1, size):
            if bin(mask).count("1") < 2:
                continue
            low = mask & -mask
            submask = (mask - 1) & mask
            while submask:
                if submask & low:  # anchor: left side holds the lowest bit
                    other = mask ^ submask
                    left, right = best[submask], best[other]
                    if left is not None and right is not None:
                        if self._connected(
                            mask_vars[submask], mask_vars[other], cross_filters
                        ):
                            joined = (
                                max(1.0, min(left[1], right[1]))
                                * self.model.selectivity
                                * 2.0
                            )
                            cost = left[0] + right[0] + joined
                            if best[mask] is None or cost < best[mask][0]:
                                best[mask] = (
                                    cost,
                                    joined,
                                    (left[2], right[2]),
                                )
                submask = (submask - 1) & mask
        full = best[size - 1]
        return None if full is None else full[2]

    def _join_left_deep(
        self,
        component_vars: list[set[str]],
        cross_filters: list[FilterPredicate],
    ):
        """Connectivity-aware left-deep walk for many components."""
        n = len(component_vars)
        shape: object = 0
        joined_vars = set(component_vars[0])
        remaining = list(range(1, n))
        while remaining:
            next_index = None
            for i in remaining:
                if self._connected(joined_vars, component_vars[i], cross_filters):
                    next_index = i
                    break
            if next_index is None:
                return None
            shape = (shape, next_index)
            joined_vars |= component_vars[next_index]
            remaining.remove(next_index)
        return shape

    def _build_shape(
        self,
        shape,
        chains: list[PlanNode],
        pending: list[FilterPredicate],
    ) -> tuple[PlanNode, list[FilterPredicate]]:
        if isinstance(shape, int):
            return chains[shape], pending
        left_plan, pending = self._build_shape(shape[0], chains, pending)
        right_plan, pending = self._build_shape(shape[1], chains, pending)
        conditions, pending = self._split_join_conditions(
            left_plan, right_plan, pending
        )
        if not conditions:
            raise BindingError(
                "independent service chains must be connected by at "
                "least one equality predicate (cartesian products over "
                "web services are not supported)"
            )
        plan: PlanNode = JoinNode(
            left=left_plan, right=right_plan, conditions=tuple(conditions)
        )
        still_pending = []
        for predicate in pending:
            needed = {v.name for v in predicate.input_variables()}
            if needed <= set(plan.schema):
                plan = FilterNode(
                    plan,
                    predicate.op,
                    expr_from_calculus(predicate.left),
                    expr_from_calculus(predicate.right),
                )
            else:
                still_pending.append(predicate)
        return plan, still_pending

    def _render_shape(self, shape, components: list[list[FunctionPredicate]]):
        if isinstance(shape, int):
            aliases = "+".join(p.alias for p in components[shape])
            return aliases
        left = self._render_shape(shape[0], components)
        right = self._render_shape(shape[1], components)
        return f"({left} ⋈ {right})"
