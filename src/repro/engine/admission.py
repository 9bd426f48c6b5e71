"""Admission control for the resident query engine: the one admission path.

The paper's adaptive operators tune fanout *inside* one query; this
module bounds how many queries the engine runs at once.  Every query is
admitted by one :class:`AdmissionController`; the engine's two policies
are the same controller with a different floor:

* ``admission="static"`` (the default) pins the limit: the floor equals
  the ceiling (``max_concurrency``).  A pinned controller takes no
  latency samples, runs no control step and applies no fanout cap, and a
  single tenant's queries are admitted first come, first served — the
  schedule of a plain counting semaphore, bit for bit.
* ``admission="adaptive"`` (or an :class:`AdmissionConfig`) starts at
  :data:`MIN_CONCURRENCY` and lets :class:`CapacityController` move the
  limit.  Concurrency past the safe level inflates worst-query p50
  latency by 50-85% (the querytorque parallel-capacity sweep in
  SNIPPETS.md); the controller is the *online* version of that sweep:
  completed queries feed per-concurrency-level latency histograms, and a
  feedback control law in the shape of Gounaris et al.'s web-service
  concurrency controllers raises the limit additively while measured p50
  inflation versus the single-query baseline stays under the threshold,
  and backs off multiplicatively (with hysteresis) when it does not.

Under either policy the controller queues fairly across tenants
(virtual-time tags, so a heavy tenant's backlog cannot starve a light
one) and sheds on deadlines: a query whose ``deadline_ms`` cannot be met
at the measured service rate is rejected *before it runs* with
:class:`AdmissionRejected`, which the HTTP front end maps to ``429`` +
``Retry-After``.

Everything here runs on kernel primitives only, so admission is
bit-for-bit deterministic under :class:`~repro.runtime.simulated.SimKernel`
and works unchanged under the real-time kernels.  State is bounded: each
level keeps a ring of :data:`WINDOW` latency samples, and an idle tenant
is forgotten once the tenant table is full.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.util.errors import ReproError
from repro.util.stats import quantile

# The control law's constants.  No caller sets any of them (docs/KNOBS.md);
# a test that needs another value patches the constant.
#: Floor and starting limit of the adaptive policy, so the controller
#: first gathers its single-query baseline.
MIN_CONCURRENCY = 1
#: Completed solo queries required before the limit may rise.
BASELINE_SAMPLES = 2
#: Completions at the current limit per control decision (the online
#: sweep's "rounds").
PROBE_QUERIES = 3
#: Latency samples kept per level; each p50 is over this ring.
WINDOW = 32
#: The limit rises only while inflation is under ``threshold *
#: RAISE_MARGIN`` (the dead band between raising and backing off).
RAISE_MARGIN = 0.9
#: Clean control windows before a level that tripped is probed again.
REPROBE_WINDOWS = 4
#: Smoothing of the per-query service-time estimate that prices queue
#: delay for deadline shedding.
EWMA_ALPHA = 0.3
#: Mean queue wait over mean server time above which a broker endpoint
#: counts as contended, and the lowest fanout cap contention may impose.
CONTENTION_RATIO = 0.5
MIN_FANOUT_CAP = 2
#: Fair-queueing weight per tenant name; a tenant not listed weighs 1.0.
TENANT_WEIGHTS: dict[str, float] = {}
#: Tenants remembered at once.  At the bound, tenants with nothing queued
#: or active and no fairness debt are forgotten with their counters.
MAX_TENANTS = 64


class AdmissionRejected(ReproError):
    """A query was shed at admission (deadline unmeetable at current rates).

    ``retry_after`` is the controller's service-rate estimate of when a
    retry could be admitted, in *model seconds*; the HTTP front end turns
    it into a ``Retry-After`` header on a ``429`` response.
    """

    def __init__(self, message: str, *, retry_after: float, tenant: str) -> None:
        super().__init__(message)
        self.retry_after = retry_after
        self.tenant = tenant


@dataclass(frozen=True)
class AdmissionConfig:
    """Tuning of the adaptive admission policy.

    ``threshold``            p50 inflation versus the single-query
                             baseline that marks a concurrency level
                             unsafe (1.5 = "worst-query p50 may grow 50%").
    ``default_deadline_ms``  deadline applied to queries that carry none
                             (model milliseconds; ``None`` = no deadline).
    """

    threshold: float = 1.5
    default_deadline_ms: float | None = None

    def __post_init__(self) -> None:
        if self.threshold <= 1.0:
            raise ReproError(
                f"admission threshold must be > 1.0, got {self.threshold}"
            )


@dataclass
class AdmissionStats:
    """Point-in-time snapshot of the admission controller."""

    policy: str
    limit: int
    ceiling: int
    baseline_p50: float
    inflation: float
    ewma_service: float
    admitted: int
    shed: int
    queued: int
    raises: int
    backoffs: int
    fanout_cap: int  # 0 = uncapped
    tenants: dict[str, dict[str, float]] = field(default_factory=dict)


class CapacityController:
    """Online capacity probe: the offline p50-inflation sweep, closed-loop.

    The limit moves between ``floor`` and ``ceiling``; with the two equal
    the controller is :attr:`pinned` and :class:`AdmissionController`
    never feeds it.  Otherwise completed queries are observed at the
    concurrency *level* they were admitted at (how many queries were in
    flight, including themselves).  Each level keeps a ring of its latest
    :data:`WINDOW` latencies, so the measured sweep is inspectable exactly
    like the offline table in SNIPPETS.md (:meth:`sweep_table`).  The
    control law:

    * the baseline is the p50 of level-1 (solo) samples;
    * every :data:`PROBE_QUERIES` completions at the current limit,
      compare the limit's p50 to the baseline;
    * inflation under ``threshold * RAISE_MARGIN`` raises the limit by 1
      (additive increase) up to the ceiling;
    * inflation over ``threshold`` halves the limit (multiplicative
      decrease) and marks the tripped level unsafe — it is re-probed
      only after :data:`REPROBE_WINDOWS` consecutive clean windows
      (hysteresis, so a borderline level cannot make the limit flap).
    """

    def __init__(self, threshold: float, floor: int, ceiling: int) -> None:
        self.threshold = threshold
        self.floor = floor
        self.ceiling = ceiling
        self._latencies: dict[int, list[float]] = {}  # level -> ring
        self.limit = floor
        self.raises = 0
        self.backoffs = 0
        self.last_inflation = 0.0
        self._at_limit = 0  # completions at the current limit since change
        self._unsafe: int | None = None  # lowest level known to trip
        self._clean_windows = 0

    @property
    def pinned(self) -> bool:
        """Floor equals ceiling: the limit can never move."""
        return self.floor == self.ceiling

    # -- measurements ------------------------------------------------------------

    def _samples(self, level: int) -> list[float]:
        """The level's ring, or ``[]`` — reading never adds a ring."""
        return self._latencies.get(level, [])

    def observe(self, level: int, latency: float) -> None:
        samples = self._latencies.setdefault(level, [])
        samples.append(latency)
        del samples[:-WINDOW]  # a ring: decisions read current rates only
        if level == self.limit:
            self._at_limit += 1

    def baseline_p50(self) -> float:
        baseline = self._samples(1)
        if len(baseline) < BASELINE_SAMPLES:
            return 0.0
        return quantile(baseline, 0.5)

    def sweep_table(self) -> list[dict[str, float]]:
        """The measured sweep, one row per probed level (snippet-style)."""
        baseline = self.baseline_p50()
        rows = []
        for level in range(1, self.ceiling + 1):
            samples = self._samples(level)
            if not samples:
                continue
            p50 = quantile(samples, 0.5)
            rows.append(
                {
                    "level": level,
                    "samples": len(samples),
                    "p50": p50,
                    "inflation": p50 / baseline if baseline else 0.0,
                }
            )
        return rows

    # -- the control law ---------------------------------------------------------

    def control_step(self) -> None:
        """One feedback decision; called after every query completion."""
        baseline = self.baseline_p50()
        if not baseline:
            return  # still gathering the solo baseline
        if self._at_limit < PROBE_QUERIES:
            return  # not enough evidence at this limit yet
        self._at_limit = 0
        inflation = quantile(self._samples(self.limit), 0.5) / baseline
        self.last_inflation = inflation
        if inflation > self.threshold:
            self._unsafe = min(self._unsafe or self.limit, self.limit)
            self._clean_windows = 0
            backed_off = max(self.floor, self.limit // 2)
            if backed_off != self.limit:
                self.limit = backed_off
                self.backoffs += 1
            return
        self._clean_windows += 1
        if inflation > self.threshold * RAISE_MARGIN:
            return  # dead band: safe, but too close to the edge to raise
        if self.limit >= self.ceiling:
            return
        next_level = self.limit + 1
        if self._unsafe is not None and next_level >= self._unsafe:
            if self._clean_windows < REPROBE_WINDOWS:
                return  # hysteresis: wait before re-probing a tripped level
            self._unsafe = None  # forgive — service rates may have changed
        self._clean_windows = 0
        self.limit = next_level
        self.raises += 1


class _TenantState:
    __slots__ = (
        "name", "weight", "finish", "admitted", "rejected", "queued", "active"
    )

    def __init__(self, name: str, weight: float) -> None:
        self.name = name
        self.weight = weight
        self.finish = 0.0  # virtual finish tag of the last request
        self.admitted = 0
        self.rejected = 0
        self.queued = 0
        self.active = 0


class _Waiter:
    __slots__ = (
        "tenant",
        "tag",
        "seq",
        "event",
        "ticket",
        "deadline_ms",
        "submitted_at",
        "rejection",
    )

    def __init__(self, tenant: _TenantState, tag: float, seq: int, event) -> None:
        self.tenant = tenant
        self.tag = tag
        self.seq = seq
        self.event = event
        self.ticket: Ticket | None = None
        self.deadline_ms: float | None = None
        self.submitted_at = 0.0
        self.rejection: AdmissionRejected | None = None


@dataclass
class Ticket:
    """Proof of admission; hand it back to :meth:`release` when done."""

    tenant: str
    level: int  # queries in flight at admission, including this one


class AdmissionController:
    """The engine's one admission path: capacity limit + tenant WFQ +
    deadline shedding.

    ``config=None`` is the static policy — the limit is pinned at
    ``ceiling`` — and an :class:`AdmissionConfig` the adaptive one, whose
    limit starts at :data:`MIN_CONCURRENCY` and is moved by
    :class:`CapacityController`.

    ``admit`` either returns a :class:`Ticket` (possibly after queueing)
    or raises :class:`AdmissionRejected`.  ``release`` must run exactly
    once per ticket — it updates the service-time estimate, feeds an
    unpinned capacity controller and hands the freed slot to the fairest
    waiter.
    """

    def __init__(
        self,
        kernel,
        config: AdmissionConfig | None,
        *,
        ceiling: int,
        broker=None,
    ) -> None:
        self.kernel = kernel
        self.config = config if config is not None else AdmissionConfig()
        self.broker = broker
        self.capacity = CapacityController(
            self.config.threshold,
            ceiling if config is None else MIN_CONCURRENCY,
            ceiling,
        )
        self._tenants: dict[str, _TenantState] = {}
        self._queue: list[_Waiter] = []
        self._active = 0
        self._vtime = 0.0
        self._seq = 0
        self._ewma: float | None = None  # per-query service time estimate
        self.admitted = 0
        self.shed = 0
        # Admission order of the most recent grants, newest last; fairness
        # tests assert interleaving on it.
        self.admission_log: deque[str] = deque(maxlen=256)

    # -- tenants -----------------------------------------------------------------

    def _tenant(self, name: str) -> _TenantState:
        state = self._tenants.get(name)
        if state is None:
            if len(self._tenants) >= MAX_TENANTS:
                self._forget_idle_tenants()
            state = _TenantState(name, TENANT_WEIGHTS.get(name, 1.0))
            self._tenants[name] = state
        return state

    def _forget_idle_tenants(self) -> None:
        """Drop every tenant that carries no state worth keeping: nothing
        queued or active, and a finish tag virtual time has passed (so a
        fresh entry would be tagged identically).  Its counters go with it
        — tenant names arrive from ``POST /sql`` clients, and the table
        must not grow with them."""
        for name, state in list(self._tenants.items()):
            if state.queued or state.active or state.finish > self._vtime:
                continue
            del self._tenants[name]

    # -- admission ---------------------------------------------------------------

    @property
    def limit(self) -> int:
        return self.capacity.limit

    def reset(self) -> None:
        """The kernel restarted: every queued waiter and admitted query
        died with the old run, and their events cannot fire in the new one."""
        self._queue.clear()
        self._active = 0
        for state in self._tenants.values():
            state.queued = state.active = 0

    def estimated_wait(self) -> float:
        """Expected queue delay for a request arriving now (model seconds)."""
        if self._ewma is None:
            return 0.0
        backlog = len(self._queue) + max(0, self._active - self.limit + 1)
        return self._ewma * backlog / max(1, self.limit)

    def _shed(self, tenant: _TenantState, message: str, retry_after: float):
        tenant.rejected += 1
        self.shed += 1
        return AdmissionRejected(
            message, retry_after=retry_after, tenant=tenant.name
        )

    def _shed_check(self, tenant: _TenantState, deadline: float | None) -> None:
        if deadline is None or self._ewma is None:
            return
        est_wait = self.estimated_wait()
        if deadline / 1000.0 < est_wait + self._ewma:
            raise self._shed(
                tenant,
                f"deadline {deadline:g}ms cannot be met: estimated queue wait "
                f"{est_wait * 1000.0:.0f}ms + service {self._ewma * 1000.0:.0f}ms "
                f"at admission limit {self.limit}",
                max(est_wait, self._ewma),
            )

    def _grant(self, tenant: _TenantState, tag: float) -> Ticket:
        self._vtime = max(self._vtime, tag)
        self._active += 1
        tenant.active += 1
        tenant.admitted += 1
        self.admitted += 1
        self.admission_log.append(tenant.name)
        return Ticket(tenant=tenant.name, level=self._active)

    async def admit(
        self, tenant: str = "default", *, deadline_ms: float | None = None
    ) -> Ticket:
        state = self._tenant(tenant)
        deadline = (
            self.config.default_deadline_ms if deadline_ms is None else deadline_ms
        )
        self._shed_check(state, deadline)
        tag = max(self._vtime, state.finish) + 1.0 / state.weight
        state.finish = tag
        if self._active < self.limit and not self._queue:
            return self._grant(state, tag)
        self._seq += 1
        waiter = _Waiter(state, tag, self._seq, self.kernel.event())
        waiter.deadline_ms = deadline
        waiter.submitted_at = self.kernel.now()
        self._queue.append(waiter)
        state.queued += 1
        try:
            await waiter.event.wait()
        finally:
            state.queued -= 1
            if (
                waiter.ticket is None
                and waiter.rejection is None
                and waiter in self._queue
            ):
                # Cancelled while queued: withdraw so _pump never grants
                # a slot to a dead waiter.
                self._queue.remove(waiter)
        if waiter.rejection is not None:
            raise waiter.rejection
        assert waiter.ticket is not None
        return waiter.ticket

    def release(self, ticket: Ticket, latency: float) -> None:
        self._active -= 1
        self._tenants[ticket.tenant].active -= 1
        self._ewma = (
            latency
            if self._ewma is None
            else EWMA_ALPHA * latency + (1.0 - EWMA_ALPHA) * self._ewma
        )
        if not self.capacity.pinned:
            self.capacity.observe(ticket.level, latency)
            self.capacity.control_step()
        self._pump()

    def _pump(self) -> None:
        """Hand freed slots to waiters in weighted-fair (tag, seq) order.

        A waiter whose deadline the queue has already eaten — remaining
        budget below one estimated service time — is shed here instead of
        granted, still strictly *before* execution (the deadline check at
        arrival can only price the queue it can see; the EWMA may not
        even exist yet when a burst arrives on an idle controller).
        """
        while self._active < self.limit and self._queue:
            waiter = min(self._queue, key=lambda entry: (entry.tag, entry.seq))
            self._queue.remove(waiter)
            if waiter.deadline_ms is not None and self._ewma is not None:
                waited = self.kernel.now() - waiter.submitted_at
                remaining = waiter.deadline_ms / 1000.0 - waited
                if remaining < self._ewma:
                    waiter.rejection = self._shed(
                        waiter.tenant,
                        f"deadline {waiter.deadline_ms:g}ms cannot be met: "
                        f"{waited * 1000.0:.0f}ms spent queued, service "
                        f"needs {self._ewma * 1000.0:.0f}ms",
                        self._ewma,
                    )
                    waiter.event.set()
                    continue
            waiter.ticket = self._grant(waiter.tenant, waiter.tag)
            waiter.event.set()

    # -- AFF fanout caps ---------------------------------------------------------

    def fanout_cap(self) -> int | None:
        """Fanout ceiling from measured broker queue contention, or None.

        An endpoint whose mean queue wait exceeds :data:`CONTENTION_RATIO`
        of its mean server time is saturated: dispatching a wider AFF
        fanout against it only deepens the broker queue (the ``queue``
        spans in ``repro.obs`` traces).  The cap allows two in-flight
        calls per server slot of the most contended endpoint — enough to
        pipeline the transport, not enough to stack the queue.  A pinned
        controller adapts nothing, fanout included.
        """
        if self.capacity.pinned or self.broker is None:
            return None
        cap: int | None = None
        for info in self.broker.contention().values():
            if info["server_time_mean"] <= 0.0:
                continue
            ratio = info["queue_wait_mean"] / info["server_time_mean"]
            if ratio <= CONTENTION_RATIO:
                continue
            endpoint_cap = max(MIN_FANOUT_CAP, 2 * info["capacity"])
            cap = endpoint_cap if cap is None else min(cap, endpoint_cap)
        return cap

    # -- introspection -----------------------------------------------------------

    def stats(self) -> AdmissionStats:
        return AdmissionStats(
            policy="static" if self.capacity.pinned else "adaptive",
            limit=self.limit,
            ceiling=self.capacity.ceiling,
            baseline_p50=self.capacity.baseline_p50(),
            inflation=self.capacity.last_inflation,
            ewma_service=self._ewma or 0.0,
            admitted=self.admitted,
            shed=self.shed,
            queued=len(self._queue),
            raises=self.capacity.raises,
            backoffs=self.capacity.backoffs,
            fanout_cap=self.fanout_cap() or 0,
            tenants={
                state.name: {
                    "weight": state.weight,
                    "admitted": state.admitted,
                    "rejected": state.rejected,
                    "queued": state.queued,
                }
                for state in self._tenants.values()
            },
        )
