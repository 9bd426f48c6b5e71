"""The WSMED system facade.

Typical use::

    from repro import WSMED
    from repro.render import render_summary

    wsmed = WSMED(profile="paper")
    wsmed.import_all()                     # read WSDLs, generate OWF views
    result = wsmed.sql(QUERY2, options=QueryOptions(mode="adaptive"))
    print(render_summary(result))

Execution modes (Sec. V of the paper):

``central``
    The naive sequential plan (Figs 6/10); every web-service call in
    sequence.
``parallel``
    The plan rewritten with ``FF_APPLYP`` for a manually chosen fanout
    vector (Figs 9/13) — ``fanouts=[5, 4]`` is the paper's best Query1
    tree; a 0 entry fuses levels into a flat tree (Fig 14).
``adaptive``
    ``AFF_APPLYP``: starts from a binary tree and adapts each process's
    subtree at run time (Sec. V.A).
"""

from __future__ import annotations

import enum

from repro.algebra.central import create_central_plan
from repro.algebra.cost import (
    CostModel,
    estimate_nodes,
    estimate_plan,
    model_from_observations,
)
from dataclasses import replace as _replace

from repro.algebra.interpreter import ExecutionContext, compile_plan
from repro.algebra.optimizer import create_cost_based_plan
from repro.algebra.plan import (
    AdaptationParams,
    DistinctNode,
    LimitNode,
    PlanNode,
    SortNode,
    UnionNode,
)
from repro.cache import CacheConfig, CallMemo
from repro.calculus.expressions import CalculusQuery
from repro.calculus.generator import generate_calculus
from repro.calculus.rewrite import rewrite_unfittable
from repro.fdb.catalog import Catalog
from repro.fdb.functions import FunctionDef, FunctionRegistry, helping_function
from repro.fdb.types import CHARSTRING, TupleType
from repro.obs.run import QueryRun
from repro.obs.spans import NULL_RECORDER
from repro.parallel.costs import ProcessCosts
from repro.parallel.pools import close_pools, install_pools
from repro.parallel.parallelizer import parallelize
from repro.render import render_cost_explain, render_explain
from repro.runtime.simulated import SimKernel
from repro.services.broker import ServiceBroker
from repro.services.registry import ServiceRegistry, build_registry
from repro.sql.ast import FuncCall, Star
from repro.sql.parser import parse_query
from repro.util.errors import BindingError, CalculusError, PlanError
from repro.wsmed.options import ENGINE_ONLY, QueryOptions, resolve_options
from repro.wsmed.owf import generate_owf
from repro.wsmed.results import QueryResult, QueryStream
from repro.wsmed.views import render_view


class ExecutionMode(enum.Enum):
    CENTRAL = "central"
    PARALLEL = "parallel"
    ADAPTIVE = "adaptive"

    @staticmethod
    def of(value: "ExecutionMode | str") -> "ExecutionMode":
        if isinstance(value, ExecutionMode):
            return value
        try:
            return ExecutionMode(value)
        except ValueError:
            raise PlanError(
                f"unknown execution mode {value!r}; "
                "use central, parallel or adaptive"
            ) from None


def _default_costs(profile: str) -> ProcessCosts:
    costs = ProcessCosts()
    return costs.scaled(0.01) if profile == "fast" else costs


def _getzipcode(zipstr: str) -> list[tuple[str]]:
    """The paper's ``getzipcode`` helping function (Sec. II.B).

    Module-level (not a lambda) so the definition can be pickled into
    worker processes by the multi-process kernel's code shipping.
    """
    return [(code,) for code in zipstr.split(",") if code]


class DisjunctiveCalculus:
    """The calculus of an ``OR`` query: one conjunctive branch per disjunct.

    The execution plan unions the branch plans and eliminates duplicates,
    so a disjunctive query returns the DISTINCT of the true SQL result.
    """

    def __init__(self, branches: tuple[CalculusQuery, ...]) -> None:
        self.branches = branches

    def to_text(self) -> str:
        return "\nOR\n".join(branch.to_text() for branch in self.branches)


class WSMED:
    """The mediator: WSDL import, view generation, query execution."""

    #: Seed of every broker's latency-jitter and fault streams (also the
    #: registry's default); the paper numbers are pinned on it.
    seed = 2009

    def __init__(
        self,
        registry: ServiceRegistry | None = None,
        *,
        profile: str = "paper",
        process_costs: ProcessCosts | None = None,
        cache: CacheConfig | None = None,
    ) -> None:
        self.registry = registry or build_registry(profile)
        self.process_costs = process_costs or _default_costs(profile)
        # Default web-service call cache configuration; None (or a config
        # with enabled=False) executes every call against the broker.
        self.cache_config = cache
        self.catalog = Catalog()
        self.functions = FunctionRegistry()
        self._wrappers: dict[str, object] = {}
        # Lazily computed by _profile_call_costs() / _profile_fanouts();
        # invalidated by _notify_replace so a swapped registry (or a
        # re-imported endpoint with a new profile) is re-profiled.
        self._call_costs: dict[str, float] | None = None
        self._fanout_hints: dict[str, float] | None = None
        # The paper's helping function (Sec. II.B) ships with the system.
        self.register_helping_function(
            helping_function(
                "getzipcode",
                [("zipstr", CHARSTRING)],
                TupleType((("zipcode", CHARSTRING),)),
                _getzipcode,
                documentation=(
                    "Extracts the set of zip codes from a comma-separated string."
                ),
            )
        )
        self._register_catalog_views()

    def _register_catalog_views(self) -> None:
        """Expose the WSMED local database (Sec. III) as queryable views.

        ``SELECT * FROM ws_operations`` etc. work like any other view —
        the mediator's metadata is data.
        """
        from repro.fdb.types import INTEGER

        for view_name, table, columns in (
            (
                "ws_services",
                self.catalog.services,
                (("uri", CHARSTRING), ("service", CHARSTRING), ("port", CHARSTRING)),
            ),
            (
                "ws_operations",
                self.catalog.operations,
                (
                    ("uri", CHARSTRING),
                    ("service", CHARSTRING),
                    ("operation", CHARSTRING),
                    ("owf", CHARSTRING),
                ),
            ),
            (
                "ws_parameters",
                self.catalog.parameters,
                (
                    ("owf", CHARSTRING),
                    ("position", INTEGER),
                    ("name", CHARSTRING),
                    ("type", CHARSTRING),
                ),
            ),
            (
                "ws_result_columns",
                self.catalog.result_columns,
                (
                    ("owf", CHARSTRING),
                    ("position", INTEGER),
                    ("name", CHARSTRING),
                    ("type", CHARSTRING),
                ),
            ),
        ):
            self.register_helping_function(
                helping_function(
                    view_name,
                    [],
                    TupleType(columns),
                    (lambda table=table: list(table.scan())),
                    documentation=f"WSMED catalog table {view_name}",
                )
            )

    # -- metadata import --------------------------------------------------------

    def import_wsdl(self, uri: str) -> list[str]:
        """Import one WSDL document: catalog metadata + OWF views.

        Returns the names of the generated OWFs.  Re-importing replaces
        the previous definitions — unless a :class:`~repro.engine.QueryEngine`
        runs on this system: then a re-import raises
        :class:`~repro.fdb.functions.FunctionError` before the catalog or
        the function registry changes.
        """
        document = self.registry.document(uri)
        wrappers = [generate_owf(document, name) for name in document.operations]
        for wrapper in wrappers:
            self.functions.check_replaceable(wrapper.name)
        self.catalog.record_service(uri, document.service_name, document.port_name)
        generated = []
        for operation_name, wrapper in zip(document.operations, wrappers):
            function = wrapper.as_function()
            self.functions.replace(function)
            self._wrappers[function.name.lower()] = wrapper
            self.catalog.record_operation(
                uri,
                document.service_name,
                operation_name,
                function.name,
                parameters=[(n, str(t)) for n, t in wrapper.parameters],
                result_columns=[(n, str(t)) for n, t in wrapper.result_columns],
            )
            generated.append(function.name)
        self._notify_replace()
        return generated

    def import_all(self) -> list[str]:
        """Import every WSDL the registry publishes."""
        generated = []
        for uri in self.registry.wsdl_uris():
            generated.extend(self.import_wsdl(uri))
        return generated

    def register_helping_function(self, function: FunctionDef) -> None:
        self.functions.replace(function)
        self._notify_replace()

    def _notify_replace(self) -> None:
        # A replaced definition may come from a re-registered endpoint
        # whose cost profile changed; drop the lazily cached profile
        # snapshots so the next explain()/cost_model() re-reads them.
        self._call_costs = None
        self._fanout_hints = None

    # -- introspection -------------------------------------------------------------

    def owf_source(self, name: str) -> str:
        """AmosQL-style source of a generated OWF (like the paper's Fig 2)."""
        wrapper = self._wrappers.get(name.lower())
        if wrapper is None:
            raise PlanError(f"no generated OWF named {name!r}")
        return wrapper.render_source()

    def views(self) -> str:
        """Render all registered views."""
        return "\n\n".join(
            render_view(function) for function in self.functions.all()
        )

    # -- planning ---------------------------------------------------------------------

    def _compile(self, sql_text: str, opts: QueryOptions):
        """One compilation pass: returns ``(calculus, plan, report)``.

        Every planning knob comes from ``opts``: ``mode`` / ``fanouts`` /
        ``adaptation`` pick the parallelization, ``name`` labels the
        query, and ``opts.obs`` (a :class:`repro.obs.TraceRecorder`)
        records one span per compile phase: parse, calculus, algebra,
        parallelize, plan_functions.  Compile spans run on the recorder's
        wall clock (there is no kernel yet), so they form their own root
        rather than nesting under the kernel-clocked query span.

        ``opts.optimize`` selects the central plan creator:
        ``"heuristic"`` (the paper's greedy signature heuristic — the
        default, identical to the seed behavior) or ``"cost"`` (the
        cost-based optimizer of :mod:`repro.algebra.optimizer`, with
        access-path rewriting of unfittable binding patterns).
        ``opts.observed`` overlays measured per-function ``(call cost,
        fanout)`` statistics onto the profiled cost model — the resident
        engine feeds its :class:`~repro.services.broker.CallStats` back
        through this.  ``report`` is ``None`` for heuristic compilations.
        """
        mode = ExecutionMode.of(opts.mode)
        obs = opts.obs if opts.obs is not None else NULL_RECORDER
        root = current = -1
        if obs.enabled:
            root = obs.start(
                f"compile:{opts.name}",
                category="compile",
                process="compiler",
                mode=mode.value,
            )

        def phase(label: str) -> int:
            nonlocal current
            if obs.enabled:
                current = obs.start(
                    label, category="compile", parent=root, process="compiler"
                )
            return current

        try:
            phase("parse")
            query = parse_query(sql_text)
            obs.finish(current)
            phase("calculus")
            if query.is_disjunctive:
                branches = self._disjunct_calculi(query, opts)
                calculus = DisjunctiveCalculus(
                    tuple(branch for branch, _ in branches)
                )
            else:
                calculus, rewrites = self._conjunct_calculus(
                    query, opts.name, opts.optimize
                )
            obs.finish(current)
            phase("algebra")
            if query.is_disjunctive:
                central, report = self._union_plan(branches, opts), None
            else:
                central, report = self._central_plan(calculus, rewrites, opts)
            obs.finish(current)
            if mode is ExecutionMode.CENTRAL:
                return calculus, central, report
            phase("parallelize")
            if mode is ExecutionMode.PARALLEL:
                if opts.fanouts is None:
                    raise PlanError("parallel mode requires a fanout vector")
                shape = {"fanouts": opts.fanouts}
            else:
                shape = {"adaptation": opts.adaptation or AdaptationParams()}
            plan = parallelize(
                central,
                self.functions,
                obs=obs if obs.enabled else None,
                obs_parent=current,
                **shape,
            )
            obs.finish(current)
            return calculus, plan, report
        finally:
            if obs.enabled:
                obs.finish(current)  # no-op unless a phase failed mid-way
                obs.finish(root)

    def _conjunct_calculus(
        self, query, name: str, optimize: str
    ) -> tuple[CalculusQuery, list]:
        """A conjunctive calculus plus the access-path rewrites applied."""
        if optimize == "cost":
            calculus = generate_calculus(
                query, self.functions, name, allow_unbound=True
            )
            return rewrite_unfittable(calculus, self.functions)
        return generate_calculus(query, self.functions, name), []

    def _central_plan(
        self, calculus: CalculusQuery, rewrites: list, opts: QueryOptions
    ):
        """``(central plan, optimizer report)``; no report under heuristic."""
        if opts.optimize == "cost":
            return create_cost_based_plan(
                calculus,
                self.functions,
                self.cost_model(opts.observed),
                rewrites=rewrites,
            )
        return create_central_plan(calculus, self.functions), None

    def _disjunct_calculi(
        self, query, opts: QueryOptions
    ) -> list[tuple[CalculusQuery, list]]:
        """One conjunctive calculus (plus rewrites) per OR branch.

        Every branch must independently satisfy the binding patterns: a
        branch whose conjuncts cannot bind an operation's inputs raises
        :class:`~repro.util.errors.BindingError` like any conjunctive
        query would.
        """
        aggregated = query.group_by or (
            not isinstance(query.select, Star)
            and any(isinstance(item.expression, FuncCall) for item in query.select)
        )
        if aggregated:
            raise CalculusError(
                "OR cannot be combined with aggregates or GROUP BY; "
                "aggregate each branch in its own query instead"
            )
        return [
            self._conjunct_calculus(
                _replace(query, predicates=branch, disjuncts=(branch,)),
                f"{opts.name}_or{index + 1}",
                opts.optimize,
            )
            for index, branch in enumerate(query.disjuncts)
        ]

    def _union_plan(
        self, branches: list[tuple[CalculusQuery, list]], opts: QueryOptions
    ) -> PlanNode:
        """Union the branch plans; DISTINCT / ORDER BY / LIMIT go on top.

        Branch plans are built without post-processing (it must apply to
        the union, not per branch); the calculus of the first branch
        carries the resolved ORDER BY keys and LIMIT for the whole query.
        """
        plans = [
            self._central_plan(
                _replace(calc, distinct=False, order_by=(), limit=None),
                rewrites,
                opts,
            )[0]
            for calc, rewrites in branches
        ]
        # OR has set semantics here: duplicate rows across (or within)
        # branches are eliminated, i.e. the DISTINCT of the SQL result.
        plan: PlanNode = DistinctNode(UnionNode(tuple(plans)))
        spine = branches[0][0]
        if spine.order_by:
            for column, _ in spine.order_by:
                if column not in plan.schema:
                    raise PlanError(f"unknown ORDER BY column {column!r}")
            plan = SortNode(plan, tuple(spine.order_by))
        if spine.limit is not None:
            plan = LimitNode(plan, spine.limit)
        return plan

    def plan(
        self, sql_text: str, *, options: QueryOptions | None = None
    ) -> PlanNode:
        """Compile SQL down to an executable plan (planning fields of
        :class:`~repro.wsmed.options.QueryOptions` only)."""
        opts = resolve_options(options, where="WSMED.plan", rejected=ENGINE_ONLY)
        return self._compile(sql_text, opts)[1]

    def explain(
        self, sql_text: str, *, options: QueryOptions | None = None
    ) -> str:
        """Calculus, plan tree and cost estimate as a report.

        With ``optimize="cost"`` the report shows the cost-chosen plan
        annotated with per-operator estimates, the heuristic plan it was
        compared against, and any access-path rewrites applied (with the
        binding-pattern reason) — or, when the heuristic pipeline cannot
        plan the query at all, the error the rewrite repaired.
        """
        opts = resolve_options(options, where="WSMED.explain", rejected=ENGINE_ONLY)
        calculus, plan, report = self._compile(sql_text, opts)
        model = self.cost_model(opts.observed)
        if opts.optimize != "cost":
            return render_explain(calculus, plan, estimate_plan(plan, self.functions, model))
        try:
            _, heuristic_plan, _ = self._compile(sql_text, opts.replace(optimize="heuristic"))
        except BindingError as error:
            heuristic = error
        else:
            heuristic = heuristic_plan, estimate_plan(heuristic_plan, self.functions, model)
        return render_cost_explain(
            calculus, plan, estimate_nodes(plan, self.functions, model), report, heuristic
        )

    def _profile_call_costs(self) -> dict[str, float]:
        if self._call_costs is None:
            costs = {}
            for service_costs in self.registry.costs.values():
                for operation, profile in service_costs.operations.items():
                    costs[operation] = profile.sequential_call_time()
            self._call_costs = costs
        return self._call_costs

    def _profile_fanouts(self) -> dict[str, float]:
        """Advisory rows-per-call hints from the endpoint profiles."""
        if self._fanout_hints is None:
            hints = {}
            for service_costs in self.registry.costs.values():
                for operation, profile in service_costs.operations.items():
                    if profile.fanout_hint is not None:
                        hints[operation] = profile.fanout_hint
            self._fanout_hints = hints
        return self._fanout_hints

    def cost_model(
        self, observed: dict[str, tuple[float, float]] | None = None
    ) -> CostModel:
        """The optimizer's cost model: profiled costs + fanout hints.

        ``observed`` overlays measured per-function ``(call cost,
        fanout)`` pairs — see
        :func:`repro.algebra.cost.model_from_observations`.
        """
        model = CostModel(
            fanouts=dict(self._profile_fanouts()),
            call_costs=dict(self._profile_call_costs()),
        )
        if observed:
            model = model_from_observations(model, observed)
        return model

    # -- execution -----------------------------------------------------------------------

    def sql(
        self, sql_text: str, *, options: QueryOptions | None = None
    ) -> QueryResult:
        """Run a SQL query and return rows plus execution statistics.

        One-shot, as in the paper's experiments: compile, bind a fresh
        broker to a fresh kernel, run through :meth:`run_plan`, and tear
        the process tree down (``elapsed`` includes the teardown).  All
        per-query knobs travel in ``options`` (a
        :class:`~repro.wsmed.options.QueryOptions`).

        ``kernel`` defaults to a fresh simulated kernel (virtual time);
        pass an :class:`~repro.runtime.realtime.AsyncioKernel` to execute
        with real concurrency.  ``retries`` retries retriable service
        faults per call before giving up.  ``cache`` overrides the
        system-wide :class:`~repro.cache.CacheConfig` for this query;
        when enabled, the query's processes share one memo of their
        web-service calls.
        ``process_costs`` overrides the system-wide cost model for this
        query (e.g. to enable micro-batching via ``batch_size``).
        ``on_error`` is the pools' failure policy and ``faults`` (a
        :class:`~repro.parallel.faults.FaultInjection`) the faults the
        query injects on purpose; both ride the query's run.
        ``obs`` (a :class:`repro.obs.TraceRecorder`) turns on tracing:
        compile phases, operator invocations, per-call and web-service
        spans and the pools' instants land in its store, which the
        returned result exposes as ``QueryResult.spans`` (see
        ``critical_path()`` and the span views of :mod:`repro.render`).
        The default no-op recorder records nothing and computes exactly
        what a traced run does.
        ``optimize="cost"`` plans with the cost-based optimizer (and
        access-path rewriting) instead of the default greedy heuristic;
        ``observed`` overlays measured per-function (call cost, fanout)
        statistics onto the optimizer's cost model.
        """
        opts = resolve_options(options, where="WSMED.sql", rejected=ENGINE_ONLY)
        _, plan, _ = self._compile(sql_text, opts)
        kernel = opts.kernel or SimKernel()
        broker = self.registry.bind(kernel, seed=self.seed)
        stream = QueryStream(self.run_plan, plan, opts, broker)
        return kernel.run(stream.collect())

    def cache_config_for(self, opts: QueryOptions) -> CacheConfig | None:
        """The query's effective call-cache config; None when disabled."""
        config = opts.cache if opts.cache is not None else self.cache_config
        return config if config is not None and config.enabled else None

    async def run_plan(
        self,
        stream: QueryStream,
        plan: PlanNode,
        opts: QueryOptions,
        broker: ServiceBroker,
        *,
        memo: CallMemo | None = None,
        pool_registry=None,
        names=None,
    ):
        """Run a compiled ``plan`` on ``broker.kernel``: the body of
        ``stream`` (a :class:`~repro.wsmed.results.QueryStream`) and the
        one execution path behind :meth:`sql` and
        :class:`~repro.engine.QueryEngine`.

        Builds the coordinator's :class:`ExecutionContext` around a fresh
        :class:`~repro.obs.run.QueryRun` — the call recorder and counters
        every process of the query reports into — attaches the kernel's
        placement, installs the pool acquirer, opens the ``query:`` span,
        yields the compiled pull chain's row chunks as they come, and
        assembles the :class:`QueryResult` once the chain and its pools
        are torn down (so ``elapsed`` includes the teardown).  What
        differs between the callers arrives as arguments: the one-shot
        path passes a fresh broker and nothing else, so a query that
        memoizes builds its own :class:`~repro.cache.CallMemo` and pools
        are built per query and closed at its end; the engine passes its
        resident broker, its ``memo``, its ``pool_registry`` (warm trees
        are released, not closed) and its engine-wide process-number
        counter ``names``.  The query uses the memo iff its effective
        :class:`~repro.cache.CacheConfig` is enabled.

        Nothing runs until the stream is iterated, inside the kernel: the
        realtime kernel's clock is only readable from within its event
        loop.
        """
        kernel = broker.kernel
        mode = ExecutionMode.of(opts.mode).value
        recorder = opts.obs if opts.obs is not None else NULL_RECORDER
        costs = opts.process_costs or self.process_costs
        run = QueryRun(retries=opts.retries, on_error=opts.on_error, faults=opts.faults)
        config = self.cache_config_for(opts)
        if config is not None:
            run.memo = memo if memo is not None else CallMemo(kernel, config)
            run.ttl = config.ttl
        if names is not None:
            run.names = names
        ctx = ExecutionContext(
            kernel=kernel,
            broker=broker,
            functions=self.functions,
            run=run,
        )
        kernel.attach_placement(
            ctx, functions=self.functions, registry=self.registry, seed=self.seed
        )
        install_pools(ctx, costs, pool_registry)
        query_span = -1
        if recorder.enabled:
            query_span = recorder.start(
                f"query:{opts.name}",
                category="query",
                process=ctx.process_name,
                at=kernel.now(),
                mode=mode,
            )
            run.obs = recorder
            ctx.obs_span = query_span
        stream.columns = plan.schema
        started = kernel.now()
        outcome: dict = {"outcome": "error"}
        count = 0
        chunks = compile_plan(plan).chunks(ctx, None)
        try:
            try:
                async for chunk in chunks:
                    rows = list(chunk)
                    if rows:
                        count += len(rows)
                        yield rows
            finally:
                # Also when the consumer stopped early or the plan failed:
                # a query that leaks query processes into the kernel would
                # deadlock the simulated run loop.
                await close_pools(ctx, chunks, pool_registry)
            elapsed = kernel.now() - started
            outcome = {"rows": count}
        finally:
            if recorder.enabled:
                recorder.finish(query_span, at=kernel.now(), **outcome)
        calls = run.call_recorder
        stream.result = QueryResult(
            columns=plan.schema,
            rows=[],
            elapsed=elapsed,
            mode=mode,
            total_calls=calls.total_calls(),
            call_stats=calls.all_stats(),
            tree=run.tree,
            plan=plan,
            cache_stats=run.cache_stats if run.memo is not None else None,
            message_stats=run.message_stats,
            fault_stats=run.fault_stats,
            spans=recorder.store if recorder.enabled else None,
        )
