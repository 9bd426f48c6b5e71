"""The resident query engine: one kernel, many queries.

``WSMED.sql`` is one-shot: every call builds a fresh kernel, binds a
fresh broker, compiles the query from scratch, spawns a new tree of
child query processes, runs, and tears everything down.  That is the
paper's experimental setup, but a mediator serving traffic pays the
compile and cold-start cost on every query.  :class:`QueryEngine` runs
the *same* routine — :meth:`WSMED.run_plan` executes every plan, one-shot
or resident — and only changes what it is handed, making the expensive
parts resident:

* **one kernel, one broker** — bound at construction; the simulated or
  real-time world persists across queries, so server-side state
  (endpoint semaphores, the seeded jitter stream) behaves like one
  long-running service substrate;
* **one catalogue** — the engine freezes ``wsmed.functions`` at
  construction: replacing a definition or declaring an access path then
  raises :class:`~repro.fdb.functions.FunctionError` (build a new
  ``WSMED`` and engine instead), so nothing resident below goes stale;
* **compiled-plan cache** — :class:`~repro.engine.plan_cache.PlanCache`
  keyed by ``(sql, mode, fanouts, adaptation, name, optimize)``;
* **warm child-pool reuse** — coordinator-level operator pools are
  leased from / released to a :class:`~repro.engine.pools.PoolRegistry`
  instead of being spawned and shut down per query, so a warm query
  ships zero plan functions and spawns zero processes;
* **one call memo** — a :class:`~repro.cache.CallMemo` for the engine's
  lifetime, which every query that memoizes shares (every process of it,
  and every concurrent query), dropped on a kernel generation change;
* **concurrent admission** — :meth:`sql_many` multiplexes N queries on
  the one kernel behind the one
  :class:`~repro.engine.admission.AdmissionController`; per-query
  isolation comes from the fresh :class:`~repro.obs.run.QueryRun`
  ``run_plan`` gives every query (call recorder and counters, plus the
  query's own recorder when it is traced), so concurrent
  :class:`QueryResult`s never share statistics or spans;
* **rows as they come** — :meth:`QueryEngine.stream` is every query's
  execution: a :class:`~repro.wsmed.results.QueryStream` whose chunks
  leave the engine while the query runs (the HTTP front end writes them
  to the socket); :meth:`sql`, :meth:`sql_async` and :meth:`sql_many`
  collect it.

A cold first query at concurrency 1 replays the one-shot timeline
exactly — same rows, same trace instants, same message counts; the only
difference is that process shutdown happens at :meth:`close` instead of
at the end of the query (so ``elapsed`` excludes teardown).
"""

from __future__ import annotations

import itertools
from contextlib import aclosing
from dataclasses import dataclass
from dataclasses import replace as _replace

from repro.algebra.plan import INIT_FANOUT, AdaptationParams
from repro.cache import CacheConfig, CallMemo
from repro.engine.admission import AdmissionConfig, AdmissionController
from repro.engine.plan_cache import CompiledPlan, PlanCache
from repro.engine.pools import PoolRegistry
from repro.runtime.base import Kernel
from repro.runtime.simulated import SimKernel
from repro.util.errors import PlanError, ReproError
from repro.wsmed.options import ONE_SHOT_ONLY, QueryOptions, resolve_options
from repro.wsmed.results import QueryResult, QueryStream
from repro.wsmed.system import WSMED, ExecutionMode


#: Compiled plans kept (LRU) and idle warm pools kept for reuse.
PLAN_CACHE_SIZE = 64
MAX_IDLE_POOLS = 32
#: Observed / assumed ratio (either direction) of an operation's call
#: cost or fanout past which a cost-based plan is re-optimized.
DRIFT_THRESHOLD = 2.0


class EngineClosed(ReproError):
    """The engine was closed; no further queries are admitted.

    A subclass of :class:`ReproError` so existing ``except ReproError``
    handlers keep working; the HTTP front end maps it to 503 (versus 400
    for ordinary query errors)."""


@dataclass
class EngineStats:
    """A point-in-time snapshot of the engine's resident state."""

    queries: int
    active: int
    peak_concurrency: int
    max_concurrency: int
    plan_cache_hits: int
    plan_cache_misses: int
    plan_cache_evictions: int
    plan_cache_entries: int
    warm_leases: int
    cold_starts: int
    pools_trimmed: int
    pools_closed: int
    idle_pools: int
    resident_processes: int
    # Results held by the engine's call memo.
    memo_entries: int
    # Multi-query sharing (share=True): concurrent leases of warm pools,
    # both counts zero unless the engine shares.
    sharing: bool
    pool_lease_waits: int
    shared_pool_leases: int
    # Admission (repro.engine.admission): "static" when the controller's
    # limit is pinned at max_concurrency, "adaptive" when it moves.
    admission_policy: str
    admission_limit: int
    admission_shed: int
    admission_queued: int
    admission_raises: int
    admission_backoffs: int
    admission_baseline_p50: float
    admission_inflation: float
    admission_fanout_cap: int
    # Cost-based optimizer feedback loop (repro.algebra.optimizer).
    reoptimizations: int
    observed_operations: int

    def as_dict(self) -> dict[str, object]:
        return dict(self.__dict__)


class QueryEngine:
    """Resident, multi-query execution service on top of :class:`WSMED`.

    ::

        engine = QueryEngine(wsmed)
        options = QueryOptions(mode="parallel", fanouts=[5, 4])
        first = engine.sql(QUERY1_SQL, options=options)
        warm = engine.sql(QUERY1_SQL, options=options)
        batch = engine.sql_many([QUERY1_SQL] * 16, options=options)
        engine.close()

    The kernel must be *resident* (``SimKernel(resident=True)``, the
    default, or ``AsyncioKernel(resident=True)``): a one-shot kernel
    closes every parked task when ``run`` returns, which would kill the
    warm child processes between queries.
    """

    def __init__(
        self,
        wsmed: WSMED,
        *,
        kernel: Kernel | None = None,
        max_concurrency: int = 8,
        share: bool = False,
        admission: str | AdmissionConfig = "static",
    ) -> None:
        if max_concurrency < 1:
            raise ReproError(
                f"max_concurrency must be >= 1, got {max_concurrency}"
            )
        self.wsmed = wsmed
        self.kernel = kernel if kernel is not None else SimKernel(resident=True)
        if not self.kernel.resident:
            raise ReproError(
                "QueryEngine needs a resident kernel "
                "(SimKernel(resident=True) or AsyncioKernel(resident=True)); "
                "a one-shot kernel would kill warm child processes between "
                "queries"
            )
        self.broker = wsmed.registry.bind(self.kernel, seed=wsmed.seed)
        self.plan_cache = PlanCache(PLAN_CACHE_SIZE)
        self.pool_registry = PoolRegistry(MAX_IDLE_POOLS)
        # The one call memo of the engine's address space.  Its LRU bound
        # is the system cache config's (the default config's when unset);
        # a query that memoizes may set its own ttl, not its own bound.
        self._memo_config = wsmed.cache_config or CacheConfig()
        self.memo = CallMemo(self.kernel, self._memo_config)
        # Multi-query sharing: memoization by default and shared pool
        # leases.  Off — the default — keeps every query's call path
        # seed-identical.
        self.share = share
        self.pool_registry.share_pools = share
        # Live per-operation statistics for the cost-based optimizer's
        # feedback loop: operation -> [calls, rows, total seconds],
        # aggregated from every query's CallRecorder.
        self._observed_totals: dict[str, list[float]] = {}
        self._reoptimizations = 0
        # One admission path.  "static" (the default) pins the
        # controller's limit at max_concurrency — the seed semaphore's
        # schedule; "adaptive" (or an AdmissionConfig) lets it probe for
        # the safe level below that ceiling and cap AFF fanout.
        if admission == "static":
            admission_config = None
        elif admission == "adaptive":
            admission_config = AdmissionConfig()
        elif isinstance(admission, AdmissionConfig):
            admission_config = admission
        else:
            raise ReproError(
                f'admission must be "static", "adaptive" or an '
                f"AdmissionConfig, got {admission!r}"
            )
        self.admission = AdmissionController(
            self.kernel,
            admission_config,
            ceiling=max_concurrency,
            broker=self.broker,
        )
        self._kernel_generation = self.kernel.generation
        # One process-number counter for the engine's lifetime: the first
        # query numbers its children q1..qN exactly like the seed, and
        # every later (or concurrent) query continues the sequence, so
        # names are unique across the whole engine.
        self._process_numbers = itertools.count(1)
        self._queries = 0
        self._active = 0
        self._peak_active = 0
        self._closed = False
        wsmed.functions.freeze()

    @property
    def max_concurrency(self) -> int:
        """Ceiling of the admission limit, fixed at construction."""
        return self.admission.capacity.ceiling

    # -- query execution ------------------------------------------------------------

    #: Options the resident engine rejects: it owns its kernel
    #: (``kernel``) and feeds measured statistics into the cost model
    #: itself (``observed``).
    _REJECTED_OPTIONS = frozenset(ONE_SHOT_ONLY | {"observed"})

    def sql(
        self, sql_text: str, *, options: QueryOptions | None = None
    ) -> QueryResult:
        """Run one query to completion on the resident kernel.

        Accepts a :class:`~repro.wsmed.options.QueryOptions` covering the
        planning/execution fields of :meth:`WSMED.sql` (``mode``,
        ``fanouts``, ``adaptation``, ``retries``, ``cache``,
        ``process_costs``, ``on_error``, ``faults``, ``name``, ``obs``,
        ``optimize``) — but not ``kernel`` (the engine owns its kernel) or
        ``observed`` (it feeds its own statistics).
        Two admission fields ride along: ``tenant`` (fair-queue identity,
        default ``"default"``) and ``deadline_ms`` (model milliseconds;
        a query whose deadline the measured service rate cannot meet
        raises :class:`~repro.engine.admission.AdmissionRejected` before
        it runs).  Both are honoured under either admission policy.  With
        ``obs`` a :class:`repro.obs.TraceRecorder`, compile spans appear
        only on plan-cache misses (a warm hit skips compilation
        entirely).
        """
        return self.kernel.run(self.sql_async(sql_text, options=options))

    async def sql_async(
        self, sql_text: str, *, options: QueryOptions | None = None
    ) -> QueryResult:
        """Coroutine form of :meth:`sql` for callers already running
        *inside* the resident kernel: :meth:`stream`, collected."""
        return await self.stream(sql_text, options=options).collect()

    def stream(
        self, sql_text: str, *, options: QueryOptions | None = None
    ) -> QueryStream:
        """One query as a :class:`~repro.wsmed.results.QueryStream`, for
        callers inside the resident kernel (the HTTP front end in
        :mod:`repro.serve`, whose accept loop owns ``kernel.run``).

        Takes the options of :meth:`sql`.  Pulling the first chunk admits
        the query and fetches or compiles its plan — an
        :class:`~repro.engine.admission.AdmissionRejected`,
        :class:`EngineClosed` or compile error is raised there, before any
        row — and sets ``columns``; each chunk then comes as the
        coordinator produces it.  After the last one the stream's
        ``result`` is set and the engine folds the query's observations
        into its cost model (re-optimizing a drifted plan).  However the
        stream ends — exhausted, failed, or closed with ``aclose()`` —
        the query's warm pools go back to the registry and its admission
        ticket is released.
        """
        return QueryStream(self._run, sql_text, self._resolve(options))

    def _resolve(self, options: QueryOptions | None) -> QueryOptions:
        return resolve_options(
            options, where="QueryEngine", rejected=self._REJECTED_OPTIONS
        )

    def _memo_options(self, opts: QueryOptions) -> QueryOptions:
        """``opts`` with this engine's cache rules applied: on a sharing
        engine a query that does not set ``cache`` memoizes, and no query
        sets the bound of the engine's memo."""
        cache = opts.cache
        if cache is None:
            if self.share and self.wsmed.cache_config_for(opts) is None:
                return opts.replace(cache=_replace(self._memo_config, enabled=True))
        elif cache.enabled and cache.max_entries != self.memo.max_entries:
            raise PlanError(
                f"cache max_entries is the engine's ({self.memo.max_entries}), "
                f"not per query; got {cache.max_entries}"
            )
        return opts

    def sql_many(
        self,
        queries,
        *,
        return_exceptions: bool = False,
        options: QueryOptions | None = None,
    ) -> list[QueryResult]:
        """Run several queries concurrently on the one kernel.

        ``queries`` is a list of SQL strings, or ``(sql, overrides)``
        pairs where ``overrides`` is a :class:`QueryOptions` replacing
        the batch-wide ``options`` for that query, or a field-override
        dict merged over it.  All queries are admitted through the
        engine's admission controller (limit pinned at ``max_concurrency``
        by default, moving below it when the engine was built with
        ``admission="adaptive"``) and results come back in input order.
        Per-query ``tenant`` / ``deadline_ms`` overrides thread through
        to the admission queue.

        With ``return_exceptions=True`` a failed query — most usefully an
        :class:`AdmissionRejected` shed by the deadline policy — comes
        back as the exception object in its slot instead of destroying
        the whole batch.
        """
        base = self._resolve(options)
        coros = []
        for query in queries:
            if isinstance(query, str):
                sql_text, per_query = query, base
            else:
                sql_text, overrides = query
                if isinstance(overrides, QueryOptions):
                    per_query = overrides
                else:
                    per_query = base.replace(**overrides)
            coros.append(QueryStream(self._run, sql_text, per_query).collect())
        if return_exceptions:
            coros = [self._shielded(coro) for coro in coros]
        return self.kernel.run(self.kernel.gather(*coros))

    @staticmethod
    async def _shielded(coro):
        try:
            return await coro
        except Exception as exc:  # noqa: BLE001 — handed to the caller
            return exc

    def _check_generation(self) -> None:
        """Drop kernel-bound state after a ``Kernel.shutdown``.

        A shutdown kills every task parked in the kernel — warm child
        trees, broker queues — and invalidates primitives created in the
        old run.  An engine reused on the same (restarted) kernel must
        therefore cold-start: forget warm pools (their processes are
        dead), the call memo (its single-flight events are dead), and the
        admission queue (its waiters' events are dead).
        """
        generation = self.kernel.generation
        if generation == self._kernel_generation:
            return
        self._kernel_generation = generation
        self.admission.reset()
        self.pool_registry.discard_all()
        self.memo = CallMemo(self.kernel, self._memo_config)

    async def _run(self, stream: QueryStream, sql_text: str, opts: QueryOptions):
        """The body of every engine query's stream: admission, plan cache
        and the resident broker/memo/pools around the shared
        :meth:`WSMED.run_plan`, which runs under this same ``stream`` (one
        stream per query), then observation feedback and
        re-optimization."""
        if self._closed:
            raise EngineClosed("QueryEngine is closed")
        opts = self._memo_options(opts)
        self._check_generation()
        ticket = await self.admission.admit(
            opts.tenant, deadline_ms=opts.deadline_ms
        )
        self._active += 1
        self._peak_active = max(self._peak_active, self._active)
        started = self.kernel.now()
        try:
            await self.pool_registry.drain()
            opts = self._capped(opts)
            key = PlanCache.fingerprint(
                sql_text, opts.mode, opts.fanouts, opts.adaptation, opts.name,
                opts.optimize,
            )
            compiled = self.plan_cache.get(key)
            if compiled is None:
                compiled = self._compile_entry(sql_text, opts)
                self.plan_cache.put(key, compiled)
            run = self.wsmed.run_plan(
                stream,
                compiled.plan,
                opts,
                self.broker,
                memo=self.memo,
                pool_registry=self.pool_registry,
                names=self._process_numbers,
            )
            async with aclosing(run):
                async for chunk in run:
                    yield chunk
            self._queries += 1
            self._absorb_observations(stream.result.call_stats)
            if self._drifted(compiled):
                # Replacing the entry recompiles the plan with fresh node
                # ids, so its warm pools cold-start once.
                self.plan_cache.put(
                    key, self._compile_entry(sql_text, opts.replace(obs=None))
                )
                self._reoptimizations += 1
        finally:
            self._active -= 1
            self.admission.release(ticket, self.kernel.now() - started)

    def _capped(self, opts: QueryOptions) -> QueryOptions:
        """``opts`` with an adaptive query's adaptation params normalized
        and capped by admission's measured broker contention."""
        if ExecutionMode.of(opts.mode) is not ExecutionMode.ADAPTIVE:
            return opts
        # Normalize before fingerprinting: None and the default params
        # compile to the same plan and must share an entry.
        adaptation = opts.adaptation or AdaptationParams()
        # AFF fanout cap from measured broker queue contention: a
        # saturated endpoint only queues deeper under wider fanout, so
        # clamp the adaptation ceiling.  AdaptationParams is part of the
        # plan-cache fingerprint, so capped and uncapped compilations
        # never share an entry.
        cap = self.admission.fanout_cap()
        if cap is not None and adaptation.max_fanout > cap:
            adaptation = _replace(adaptation, max_fanout=max(cap, INIT_FANOUT))
        return opts.replace(adaptation=adaptation)

    def _compile_entry(self, sql_text: str, opts: QueryOptions) -> CompiledPlan:
        """Compile through :meth:`WSMED._compile`, costing with the
        engine's live statistics (ignored by the heuristic planner)."""
        _, plan, report = self.wsmed._compile(
            sql_text, opts.replace(observed=self.observed_stats() or None)
        )
        return CompiledPlan(
            plan=plan,
            optimize=opts.optimize,
            assumptions=dict(report.assumptions) if report else None,
            report=report,
        )

    # -- live-stats feedback ----------------------------------------------------

    def _absorb_observations(self, stats) -> None:
        """Fold one query's per-operation CallStats into the running
        totals."""
        for operation, call_stats in stats.items():
            if not call_stats.calls:
                continue
            totals = self._observed_totals.setdefault(
                operation, [0.0, 0.0, 0.0]
            )
            totals[0] += call_stats.calls
            totals[1] += call_stats.rows
            totals[2] += call_stats.total_time.total

    def observed_stats(self) -> dict[str, tuple[float, float]]:
        """Measured per-operation ``(mean call seconds, mean fanout)``."""
        observed = {}
        for operation, (calls, rows, seconds) in self._observed_totals.items():
            if calls > 0:
                observed[operation] = (seconds / calls, rows / calls)
        return observed

    def _drifted(self, compiled: CompiledPlan) -> bool:
        """Whether live stats left a cost-based plan's assumptions behind.

        Compares the measured per-operation call cost and fanout against
        the assumptions the cached plan was costed with; past
        :data:`DRIFT_THRESHOLD` (a ratio, either direction) the engine
        recompiles the entry with the observed statistics so the *next*
        execution runs the improved plan.  Heuristic plans carry no
        assumptions and never drift.
        """
        if not compiled.assumptions:
            return False
        observed = self.observed_stats()
        for operation, assumed_pair in compiled.assumptions.items():
            for assumed, actual in zip(assumed_pair, observed.get(operation, ())):
                if assumed <= 0.0 or actual <= 0.0:
                    continue
                ratio = actual / assumed
                if ratio > DRIFT_THRESHOLD or ratio < 1.0 / DRIFT_THRESHOLD:
                    return True
        return False

    # -- introspection ----------------------------------------------------------------

    def stats(self) -> EngineStats:
        plan_stats = self.plan_cache.stats
        pool_stats = self.pool_registry.stats
        admission_stats = self.admission.stats()
        return EngineStats(
            queries=self._queries,
            active=self._active,
            peak_concurrency=self._peak_active,
            max_concurrency=self.max_concurrency,
            plan_cache_hits=plan_stats.hits,
            plan_cache_misses=plan_stats.misses,
            plan_cache_evictions=plan_stats.evictions,
            plan_cache_entries=len(self.plan_cache),
            warm_leases=pool_stats.warm_leases,
            cold_starts=pool_stats.cold_starts,
            pools_trimmed=pool_stats.trimmed,
            pools_closed=pool_stats.closed,
            idle_pools=self.pool_registry.idle_pools(),
            resident_processes=self.pool_registry.resident_processes(),
            memo_entries=len(self.memo),
            sharing=self.share,
            pool_lease_waits=pool_stats.lease_waits,
            shared_pool_leases=pool_stats.shared_leases,
            reoptimizations=self._reoptimizations,
            observed_operations=len(self._observed_totals),
            admission_policy=admission_stats.policy,
            admission_limit=admission_stats.limit,
            admission_shed=admission_stats.shed,
            admission_queued=admission_stats.queued,
            admission_raises=admission_stats.raises,
            admission_backoffs=admission_stats.backoffs,
            admission_baseline_p50=admission_stats.baseline_p50,
            admission_inflation=admission_stats.inflation,
            admission_fanout_cap=admission_stats.fanout_cap,
        )

    # -- shutdown ------------------------------------------------------------------

    def close(self) -> None:
        """Shut down every warm pool, then the resident kernel, and drop
        the memoized results.  The kernel goes down even when the caller
        passed it in: a later query on a shut-down ``ProcessKernel``
        raises :class:`~repro.util.errors.KernelError`.

        Idempotent.  ``run_until_completion`` semantics mean no query is
        in flight when this can run, so "draining" is simply closing the
        idle trees; their ``process_exit`` instants land in the span store
        of the last query each tree served when that query was traced,
        exactly where the seed's per-query teardown would have put them.
        """
        if self._closed:
            return
        self._closed = True
        self.kernel.run(self.pool_registry.close_all())
        self.kernel.shutdown()
        self.memo.entries.clear()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run; queries then raise
        :class:`EngineClosed`."""
        return self._closed

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
