"""Memoization of web-service calls (the ``cwo`` transport).

Dependent joins over skewed keys make WSMED repeat calls with *identical
arguments* — Query2-style workloads where many upstream rows share a join
key pay the full ``setup + rtt + queue + server`` path once per duplicate.
A :class:`CallCache` removes that redundancy at the call boundary:

* results are memoized under ``(uri, service, operation, args)`` with an
  LRU bound and an optional TTL measured on the *model clock*, so expiry
  behaves identically under the simulated and the asyncio kernels;
* concurrent identical calls within one process are *collapsed*: the
  first caller (the leader) performs the broker round trip while the
  others park on a kernel event and share its outcome — including a
  fault, which propagates to every collapsed waiter.

Caches are strictly per query process.  The paper's children are separate
processes with no shared memory, so a child cannot see the coordinator's
entries; what makes per-process caches effective is routing equal keys to
the same child (``dispatch="hash_affinity"`` in
:mod:`repro.parallel.ff_applyp`, built on :func:`stable_hash`).
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Hashable

from repro.runtime.base import Kernel
from repro.util.errors import PlanError

#: Outcomes of one :meth:`CallCache.call`, in trace/report vocabulary.
HIT = "hit"
MISS = "miss"
COLLAPSED = "collapsed"


def stable_hash(value: Any) -> int:
    """A deterministic, process-independent hash of a parameter tuple.

    Python's builtin ``hash`` is salted per interpreter run
    (``PYTHONHASHSEED``), which would make affinity routing — and with it
    every simulated timeline — irreproducible.  CRC32 over ``repr`` is
    stable across runs and platforms for the atomic values that travel in
    parameter tuples (str/int/float/bool).
    """
    return zlib.crc32(repr(value).encode("utf-8"))


@dataclass(frozen=True)
class CacheConfig:
    """Tuning of the per-process call cache.

    ``enabled``      master switch; the default ``False`` keeps the seed
                     call-for-call behaviour bit-for-bit.
    ``max_entries``  LRU bound on memoized results per process.
    ``ttl``          lifetime of an entry in *model seconds* (``None`` =
                     entries never expire).
    """

    enabled: bool = False
    max_entries: int = 1024
    ttl: float | None = None

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            raise PlanError(
                f"cache max_entries must be >= 1, got {self.max_entries}"
            )
        if self.ttl is not None and self.ttl <= 0:
            raise PlanError(f"cache ttl must be positive (or None), got {self.ttl}")


@dataclass
class CacheStats:
    """A query's call-cache counters, over every process of the query.

    ``hits``        lookups answered from a memoized result.
    ``misses``      lookups that went to the broker (includes uncacheable
                    keys and entries refreshed after expiry/eviction).
    ``collapsed``   lookups that joined an in-flight identical call
                    instead of issuing their own round trip.
    ``evictions``   entries dropped by the LRU bound.
    ``expirations`` entries dropped because their TTL elapsed.
    ``failures``    leader calls that raised; each also propagated the
                    fault to its collapsed waiters.

    Under a sharing :class:`~repro.engine.QueryEngine` three more
    counters attribute this query's use of the *engine-level* tier
    (:mod:`repro.engine.shared`).  They never overlap the per-process
    counters above — a ``shared_hit``/``shared_wait`` was a per-process
    *miss* that the shared tier then answered, and ``coalesced`` rides
    on real round trips — so totals are free of double counting:

    ``shared_hits``   per-process misses served from the engine's shared
                      memo (no broker round trip).
    ``shared_waits``  per-process misses that awaited another query's
                      identical in-flight call (no new round trip).
    ``coalesced``     real round trips that rode a cross-query batch.
    """

    hits: int = 0
    misses: int = 0
    collapsed: int = 0
    evictions: int = 0
    expirations: int = 0
    failures: int = 0
    shared_hits: int = 0
    shared_waits: int = 0
    coalesced: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.collapsed

    @property
    def calls_avoided(self) -> int:
        """Broker round trips that memoization, collapsing and the
        engine's shared tier removed for this query."""
        return self.hits + self.collapsed + self.shared_hits + self.shared_waits

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without a broker call; 0.0 when idle."""
        if self.lookups == 0:
            return 0.0
        return self.calls_avoided / self.lookups

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "collapsed": self.collapsed,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "failures": self.failures,
            "shared_hits": self.shared_hits,
            "shared_waits": self.shared_waits,
            "coalesced": self.coalesced,
            "hit_rate": self.hit_rate,
        }


@dataclass
class _Entry:
    value: Any
    expires_at: float | None  # model time; None = never


class _Flight:
    """Single-flight rendezvous: the leader's outcome, read by waiters."""

    __slots__ = ("done", "value", "error")

    def __init__(self, kernel: Kernel) -> None:
        self.done = kernel.event()
        self.value: Any = None
        self.error: BaseException | None = None


class MemoStore:
    """LRU/TTL memo plus in-flight table behind both call-cache tiers.

    :class:`CallCache` (per process) and
    :class:`~repro.engine.shared.SharedCallCache` (per engine) keep one
    each.  The store is mechanism only: the owner passes the stats object
    to bump (``misses`` / ``failures`` / ``evictions`` / ``expirations``
    exist on both :class:`CacheStats` and ``SharedStats``) and decides
    what a waiter does with a failed leader — that policy differs
    between the tiers and stays with them.
    """

    def __init__(self, kernel: Kernel, max_entries: int, ttl: float | None) -> None:
        self.kernel = kernel
        self.max_entries = max_entries
        self.ttl = ttl
        self.entries: "OrderedDict[Hashable, _Entry]" = OrderedDict()
        self.in_flight: dict[Hashable, _Flight] = {}

    def lookup(self, key: Hashable, stats) -> _Entry | None:
        """The live entry under ``key`` (LRU-touched), else ``None``."""
        entry = self.entries.get(key)
        if entry is None:
            return None
        if entry.expires_at is not None and self.kernel.now() >= entry.expires_at:
            del self.entries[key]
            stats.expirations += 1
            return None
        self.entries.move_to_end(key)
        return entry

    def store(self, key: Hashable, value: Any, stats) -> None:
        expires_at = self.kernel.now() + self.ttl if self.ttl is not None else None
        self.entries[key] = _Entry(value, expires_at)
        self.entries.move_to_end(key)
        while len(self.entries) > self.max_entries:
            self.entries.popitem(last=False)
            stats.evictions += 1

    async def lead(
        self, key: Hashable, invoke: Callable[[], Awaitable[Any]], stats
    ) -> Any:
        """Perform the call as leader of ``key``'s single-flight group.

        Memoizes a successful result; a failure is recorded on the flight
        (for waiters to inspect) and re-raised, and nothing is memoized.
        Either way every parked waiter is woken.
        """
        flight = _Flight(self.kernel)
        self.in_flight[key] = flight
        stats.misses += 1
        try:
            value = await invoke()
        except BaseException as error:
            stats.failures += 1
            flight.error = error
            raise
        else:
            flight.value = value
            self.store(key, value, stats)
            return value
        finally:
            del self.in_flight[key]
            flight.done.set()


class CallCache:
    """Per-process memo of web-service call results with single-flight.

    One instance belongs to exactly one query process; children created by
    ``FF_APPLYP``/``AFF_APPLYP`` get their own, empty one via
    :meth:`~repro.algebra.interpreter.ExecutionContext.for_process`.  The
    counters are not the cache's own: each call bumps the
    :class:`CacheStats` of the query it serves.
    """

    def __init__(self, kernel: Kernel, config: CacheConfig) -> None:
        self.kernel = kernel
        self.config = config
        self._memo = MemoStore(kernel, config.max_entries, config.ttl)

    def __len__(self) -> int:
        return len(self._memo.entries)

    async def call(
        self,
        key: Hashable,
        invoke: Callable[[], Awaitable[Any]],
        stats: CacheStats | None = None,
    ) -> tuple[Any, str]:
        """Return ``(result, outcome)`` for the call identified by ``key``.

        ``invoke`` is a zero-argument callable producing the broker
        round-trip coroutine; it is awaited only on a miss, and only by
        the leader of a single-flight group.  ``outcome`` is one of
        :data:`HIT`, :data:`MISS`, :data:`COLLAPSED`, counted into
        ``stats`` (the query run's counters; uncounted when omitted).  A
        fault raised by the leader propagates to the leader and every
        collapsed waiter; nothing is memoized, so retries reach the broker
        again.
        """
        if stats is None:
            stats = CacheStats()
        try:
            hash(key)
        except TypeError:
            # Unhashable argument (never produced by the OWF path, but the
            # cache is public API): pass through without memoizing.
            stats.misses += 1
            return await invoke(), MISS

        entry = self._memo.lookup(key, stats)
        if entry is not None:
            stats.hits += 1
            return entry.value, HIT

        flight = self._memo.in_flight.get(key)
        if flight is not None:
            stats.collapsed += 1
            await flight.done.wait()
            if flight.error is not None:
                raise flight.error
            return flight.value, COLLAPSED

        return await self._memo.lead(key, invoke, stats), MISS
