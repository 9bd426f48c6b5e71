"""Envelope protocol between the coordinator and its OS worker processes.

The :class:`~repro.runtime.multiprocess.ProcessKernel` places child query
processes in real OS processes.  The *query protocol* (``ShipPlanFunction``,
``ParamTuple``, ``ResultTuple``, ... — :mod:`repro.parallel.messages`) is
unchanged; this module defines the transport envelopes that carry it over
one pickle-framed duplex pipe per worker, plus the control messages of the
worker runtime itself (clock anchoring, code registration, spawn/rebind,
heartbeats, broker proxying).  A child's telemetry — trace rows, finished
spans, cache and message counter deltas — has no envelope of its own: it
rides the child's call-ending ``FromChild`` and its ``ChildExited`` as one
``run`` field (:meth:`repro.obs.run.QueryRun.drain`).

Every envelope is a frozen dataclass whose fields are plain picklable
values — the round-trip tests in ``tests/parallel/test_transport.py`` lock
the wire format down.

Parent -> worker:
    :class:`AnchorClock`, :class:`RegisterFunctions`,
    :class:`RegisterServices`, :class:`SpawnChild`, :class:`RebindChild`,
    :class:`ToChild`, :class:`CancelChild`, :class:`Ping`,
    :class:`BrokerResponse`, :class:`ShutdownWorker`.
Worker -> parent:
    :class:`WorkerReady`, :class:`FromChild`, :class:`ChildExited`,
    :class:`BrokerRequest`, :class:`Pong`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional


# -- parent -> worker ---------------------------------------------------------


@dataclass(frozen=True)
class AnchorClock:
    """First message a worker receives: aligns its model clock.

    ``model_now`` is the parent kernel's ``now()`` at send time; the
    worker offsets its own kernel so both clock domains advance together
    (both are wall clocks scaled by the same ``time_scale``).
    """

    model_now: float
    time_scale: float


@dataclass(frozen=True)
class RegisterFunctions:
    """Code shipping, stage 1: the function registry.

    ``payload`` is a pickled list of :class:`~repro.fdb.functions.FunctionDef`;
    ``stubs`` names definitions whose implementations cannot travel (e.g.
    closures over local state) — the worker registers poisoned stand-ins
    that fail loudly if a shipped plan ever invokes them.
    """

    payload: bytes
    stubs: tuple[str, ...] = ()


@dataclass(frozen=True)
class RegisterServices:
    """Optional: ship the whole service registry for worker-local calls.

    Only sent when the kernel runs with ``local_services=True`` (CPU-bound
    workloads); the worker binds its own broker over the pickled
    :class:`~repro.services.registry.ServiceRegistry` instead of proxying
    every call to the parent.
    """

    payload: bytes
    seed: int
    fault_rate: float = 0.0


@dataclass(frozen=True)
class SpawnChild:
    """Start one child query process (``child_main``) inside the worker."""

    child_id: int
    name: str
    costs: Any  # ProcessCosts (frozen dataclass, picklable)
    # Whether the query memoizes, and its ttl; only a local_services
    # worker reads it (every other worker's calls go to the coordinator).
    cache_config: Any  # CacheConfig | None
    retries: int = 0
    retry_backoff: float = 0.5
    # Observability: when the parent query is traced, the worker records
    # child-side spans with ids starting at span_base (disjoint from the
    # parent recorder's id space) and ships them back as they finish.
    tracing: bool = False
    span_base: int = 0


@dataclass(frozen=True)
class RebindChild:
    """Re-home a warm child into a new query (the remote half of
    ``ChildPool.rebind``): the new query's cache setting and retry policy,
    and a fresh span recorder when the new query is traced."""

    child_id: int
    cache_config: Any = None  # CacheConfig | None, as in SpawnChild
    retries: int = 0
    retry_backoff: float = 0.5
    tracing: bool = False
    span_base: int = 0


@dataclass(frozen=True)
class ToChild:
    """One query-protocol message for a child's downlink (ShipPlanFunction,
    ParamTuple, ParamBatch, ReadyToReceive, Shutdown)."""

    child_id: int
    payload: Any


@dataclass(frozen=True)
class CancelChild:
    child_id: int


@dataclass(frozen=True)
class Ping:
    seq: int


@dataclass(frozen=True)
class BrokerResponse:
    """Answer to a :class:`BrokerRequest`.

    Exactly one of ``payload`` (the decoded result value model) and
    ``error`` is set; ``error`` is ``(kind, message, retriable)`` where
    kind is ``"fault"`` (re-raised as :class:`ServiceFault`) or the
    original exception's class name (re-raised as :class:`ReproError`).
    ``outcome`` says who answered: ``"miss"`` for a real round trip, or
    the coordinator's memo (``"hit"`` / ``"collapsed"``).
    """

    request_id: int
    payload: Any = None
    error: Optional[tuple[str, str, bool]] = None
    outcome: str = "miss"


@dataclass(frozen=True)
class ShutdownWorker:
    reason: str = "kernel shutdown"


# -- worker -> parent ---------------------------------------------------------


@dataclass(frozen=True)
class WorkerReady:
    worker_id: int
    pid: int


@dataclass(frozen=True)
class FromChild:
    """One query-protocol uplink message (ResultTuple, ResultBatch,
    EndOfCall, CallFailed, ChildError) from a child in this worker.
    ``run`` is what the child's run counted since its last call-ending
    message, on a message that ends a call (else None)."""

    child_id: int
    payload: Any
    run: Optional[tuple] = None


@dataclass(frozen=True)
class ChildExited:
    """A child's ``child_main`` coroutine finished inside the worker.

    ``error`` is None for an orderly exit (Shutdown received), otherwise
    the crash description — the parent resolves the child's handle
    accordingly and the pool's death watcher takes over.  ``run`` carries
    the child's last undelivered telemetry, as on :class:`FromChild`.
    """

    child_id: int
    error: Optional[str] = None
    run: Optional[tuple] = None


@dataclass(frozen=True)
class BrokerRequest:
    """A web-service call forwarded to the parent's central broker.

    Sent by the worker-side broker proxy so capacity semaphores, call
    statistics, caching tiers and fault accounting all stay in the
    coordinator process.  ``obs_span`` is the
    worker-side web-service span id the parent's broker sub-spans (queue
    wait, serve) should link under; -1 when tracing is off.
    """

    request_id: int
    child_id: int
    uri: str
    service: str
    operation: str
    arguments: tuple
    obs_span: int = -1


@dataclass(frozen=True)
class Pong:
    seq: int
    worker_id: int
