"""Memoization of web-service calls (the ``cwo`` transport).

Dependent joins over skewed keys make WSMED repeat calls with *identical
arguments* — Query2-style workloads where many upstream rows share a join
key pay the full ``setup + rtt + queue + server`` path once per duplicate.
A :class:`CallMemo` removes that redundancy where every call leaves the
query tree, :func:`~repro.algebra.interpreter.round_trip`:

* results are memoized under ``(uri, service, operation, args)`` with an
  LRU bound and a per-entry TTL measured on the *model clock*, so expiry
  behaves identically under the simulated and the asyncio kernels;
* concurrent identical calls are *collapsed*: the first caller (the
  leader) performs the broker round trip while the others park on a
  kernel event and share its result.  A leader's fault is its own: a
  waiter re-checks and may lead the call itself.

There is one memo per address space that executes calls — a one-shot
query's, a resident engine's, or a ``local_services`` worker's — so every
process of a query (and, on an engine, every query) shares it.

The same memo holds whole plan-function results one level up: a plan
function applied to a parameter tuple is a bag of rows over a chain of
memoized calls, so its bag is exactly as memoizable as those calls.  A
:class:`Footprint` accumulates, while the call runs, how many calls lie
beneath it and when the first of their entries expires; the FF/AFF pool
stores the bag under ``(PlanSignature, row)`` in the same ``OrderedDict``
and LRU bound, and answers that tuple from it from then on.
"""

from __future__ import annotations

import math
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Hashable

from repro.runtime.base import Kernel
from repro.util.errors import PlanError

#: Outcomes of one :meth:`CallMemo.call`, in trace/report vocabulary.
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
    """Whether a query memoizes its web-service calls, and how.

    ``enabled``      master switch; the default ``False`` keeps the seed
                     call-for-call behaviour bit-for-bit.
    ``max_entries``  LRU bound of the memo this config builds (a resident
                     engine's memo takes its own bound; see
                     :class:`~repro.engine.QueryEngine`).
    ``ttl``          lifetime of this query's entries in *model seconds*
                     (``None`` = entries never expire).
    """

    enabled: bool = False
    max_entries: int = 1024
    ttl: float | None = None

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            raise PlanError(
                f"cache max_entries must be >= 1, got {self.max_entries}"
            )
        if self.ttl is not None and not (math.isfinite(self.ttl) and self.ttl > 0):
            raise PlanError(
                f"cache ttl must be positive and finite (or None), got {self.ttl}"
            )


@dataclass
class CacheStats:
    """A query's call-memo counters, over every process of the query.

    ``hits``        lookups answered from a memoized result.
    ``misses``      lookups that went to the broker (includes uncacheable
                    keys and entries refreshed after expiry/eviction).
    ``collapsed``   lookups that joined an in-flight identical call
                    instead of issuing their own round trip.
    ``evictions``   entries dropped by the LRU bound.
    ``expirations`` entries dropped because their TTL elapsed.
    ``failures``    leader calls that raised; their waiters re-checked.
    ``plan_hits``   plan-function bags served without a dispatch; each
                    adds the calls beneath it to ``hits``, so ``hits``
                    stays "calls answered without the broker".
    """

    hits: int = 0
    misses: int = 0
    collapsed: int = 0
    evictions: int = 0
    expirations: int = 0
    failures: int = 0
    plan_hits: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.collapsed

    @property
    def calls_avoided(self) -> int:
        """Broker round trips that memoization and collapsing removed."""
        return self.hits + self.collapsed

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without a broker call; 0.0 when idle."""
        if self.lookups == 0:
            return 0.0
        return self.calls_avoided / self.lookups

    def as_dict(self) -> dict[str, float]:
        return {**vars(self), "hit_rate": self.hit_rate}


@dataclass(frozen=True)
class PlanSignature:
    """A plan function as the memo keys it: its ``definition`` (its
    ``repr``, which holds what dataclass ``==`` compares and no node id,
    so every compilation of one definition shares entries).  The type
    tells a bag's key apart from a call's."""

    definition: str


class Footprint:
    """What one plan-function call read from the memo, accumulated while
    it runs: the memo-answerable web-service ``calls`` beneath it and the
    earliest model time one of their entries ``expires`` (None = never).
    Poisoned when the call's bag must not be stored (a fault, a failed or
    redelivered call beneath it, a LIMIT that cut it short, a call no memo
    answered); :attr:`value` is then None."""

    __slots__ = ("calls", "expires", "valid")

    def __init__(self) -> None:
        self.calls = 0
        self.expires: float | None = None
        self.valid = True

    def add(self, calls: int, expires: float | None) -> None:
        self.calls += calls
        if expires is not None and (self.expires is None or expires < self.expires):
            self.expires = expires

    def merge(self, footprint: tuple[int, float | None] | None) -> None:
        """Fold in the :attr:`value` of a call made beneath this one."""
        if footprint is None:
            self.valid = False
        else:
            self.add(*footprint)

    def poison(self) -> None:
        self.valid = False

    @property
    def value(self) -> tuple[int, float | None] | None:
        """``(calls, expires)``, or None when poisoned."""
        return (self.calls, self.expires) if self.valid else None


class _Flight:
    """Single-flight rendezvous: the leader's outcome, read by waiters."""

    __slots__ = ("done", "value", "error", "expires")

    def __init__(self, kernel: Kernel) -> None:
        self.done = kernel.event()
        self.value: Any = None
        self.error: BaseException | None = None
        self.expires: float | None = None  # of the entry the leader stored


class CallMemo:
    """One address space's memo of web-service results (each call's rows,
    an immutable tuple every caller shares), with single-flight, and of
    plan-function bags (:meth:`lookup_plan`, :meth:`store_plan`).

    The LRU bound is the owner's ``config.max_entries``, over call and
    plan-function entries together; the TTL is per entry, given by the
    query that stores it.  The counters are not the memo's own: each
    call bumps the :class:`CacheStats` of the query it serves.
    """

    def __init__(self, kernel: Kernel, config: CacheConfig) -> None:
        self.kernel = kernel
        self.max_entries = config.max_entries
        # key -> (value, model time it expires at; None = never)
        self.entries: "OrderedDict[Hashable, tuple[Any, float | None]]" = OrderedDict()
        self.in_flight: dict[Hashable, _Flight] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def lookup(self, key: Hashable, stats: CacheStats) -> tuple[Any, float | None] | None:
        """The live entry ``(value, expires_at)`` of ``key`` — a hit — or
        None, dropping an expired one; counted into ``stats``.  The one
        hit check, synchronous: :meth:`call` takes its hits here too."""
        entry = self.entries.get(key)
        if entry is None:
            return None
        expires_at = entry[1]
        if expires_at is None or self.kernel.now() < expires_at:
            self.entries.move_to_end(key)
            stats.hits += 1
            return entry
        del self.entries[key]
        stats.expirations += 1
        return None

    def lookup_plan(
        self, key: tuple, stats: CacheStats
    ) -> tuple[tuple, int, float | None] | None:
        """The live bag stored under ``key`` = ``(PlanSignature, row)`` as
        ``(rows, calls, expires_at)``, or None, dropping an expired one.
        A hit counts one plan hit and ``calls`` call hits into ``stats``."""
        entry = self.entries.get(key)
        if entry is None:
            return None
        (rows, calls), expires_at = entry
        if expires_at is None or self.kernel.now() < expires_at:
            self.entries.move_to_end(key)
            stats.hits += calls
            stats.plan_hits += 1
            return rows, calls, expires_at
        del self.entries[key]
        stats.expirations += 1
        return None

    def store_plan(
        self,
        key: tuple,
        rows: tuple,
        footprint: tuple[int, float | None],
        stats: CacheStats,
    ) -> None:
        """Store a plan function's bag under ``key`` until the earliest
        expiry beneath it (``footprint = (calls, expires_at)``)."""
        calls, expires_at = footprint
        self._store(key, (rows, calls), expires_at, stats)

    def _store(self, key: Hashable, value: Any, expires_at: float | None, stats) -> None:
        entries = self.entries
        entries[key] = (value, expires_at)
        entries.move_to_end(key)
        while len(entries) > self.max_entries:
            entries.popitem(last=False)
            stats.evictions += 1

    async def call(
        self,
        key: Hashable,
        invoke: Callable[[], Awaitable[Any]],
        stats: CacheStats | None = None,
        ttl: float | None = None,
        footprint: Footprint | None = None,
    ) -> tuple[Any, str]:
        """Return ``(result, outcome)`` for the call identified by ``key``.

        ``invoke`` is a zero-argument callable producing the round-trip
        coroutine; it is awaited only on a miss, and only by the leader of
        a single-flight group.  ``outcome`` is one of :data:`HIT`,
        :data:`MISS`, :data:`COLLAPSED`, counted into ``stats`` (the query
        run's counters; uncounted when omitted).  A result is stored for
        ``ttl`` model seconds (``None`` = until evicted).  A fault raises
        in the leader only and is not memoized: every waiter wakes,
        re-checks, and one of them leads the call again.  The answering
        entry is folded into ``footprint`` (the running plan-function
        call's, when it is tracked).
        """
        if stats is None:
            stats = CacheStats()
        try:
            hash(key)
        except TypeError:
            # Unhashable argument (never produced by the OWF path, but the
            # memo is public API): pass through without memoizing.
            stats.misses += 1
            if footprint is not None:
                footprint.poison()
            return await invoke(), MISS

        while True:
            entry = self.lookup(key, stats)
            if entry is not None:
                if footprint is not None:
                    footprint.add(1, entry[1])
                return entry[0], HIT
            flight = self.in_flight.get(key)
            if flight is None:
                break  # no leader: become one
            await flight.done.wait()
            if flight.error is None:
                stats.collapsed += 1
                if footprint is not None:
                    footprint.add(1, flight.expires)
                return flight.value, COLLAPSED
            # The leader's call failed.  That fault belongs to the caller
            # that issued it, so loop: re-check, and possibly lead.

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
            flight.expires = self.kernel.now() + ttl if ttl is not None else None
            self._store(key, value, flight.expires, stats)
            if footprint is not None:
                footprint.add(1, flight.expires)
            return value, MISS
        finally:
            del self.in_flight[key]
            flight.done.set()
