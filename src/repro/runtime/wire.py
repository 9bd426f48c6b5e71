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

Every envelope's fields are plain picklable values.  The per-call ones —
``ToChild``, ``FromChild``, ``BrokerRequest``, ``BrokerResponse`` — are
named tuples, and a frame carries each as one flat tuple of plain values,
its tag first (:func:`encode`): pickling them writes no class reference,
and a ``ParamTuple``, ``ResultTuple`` or ``EndOfCall`` inside is flattened
into the same tuple.  The reader rebuilds the envelope and the protocol
message its handler consumes (:func:`decode`).  The rare envelopes — code
shipping, spawn, rebind, heartbeats, exits — are frozen dataclasses and
travel as pickled objects, as does a batch or failure message inside a
``ToChild``/``FromChild``.  The round-trip tests in
``tests/parallel/test_transport.py`` lock the wire format down.

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
from typing import Any, NamedTuple, Optional

from repro.parallel import messages


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
    on_error: str = "fail"
    faults: Any = None  # FaultInjection | None
    # Observability: when the parent query is traced, the worker records
    # child-side spans with ids starting at span_base (disjoint from the
    # parent recorder's id space) and ships them back as they finish.
    tracing: bool = False
    span_base: int = 0


@dataclass(frozen=True)
class RebindChild:
    """Re-home a warm child into a new query (the remote half of
    ``ChildPool.rebind``): the new query's cache setting, retry and
    failure policies and injected faults, and a fresh span recorder when
    the new query is traced."""

    child_id: int
    cache_config: Any = None  # CacheConfig | None, as in SpawnChild
    retries: int = 0
    retry_backoff: float = 0.5
    on_error: str = "fail"
    faults: Any = None
    tracing: bool = False
    span_base: int = 0


class ToChild(NamedTuple):
    """One query-protocol message for a child's downlink (ShipPlanFunction,
    ParamTuple, ParamBatch, Shutdown)."""

    child_id: int
    payload: Any


@dataclass(frozen=True)
class CancelChild:
    child_id: int


@dataclass(frozen=True)
class Ping:
    seq: int


class BrokerResponse(NamedTuple):
    """Answer to a :class:`BrokerRequest`.

    Exactly one of ``payload`` (the answer's rows, as decoded) and
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
    # The answering memo entry's footprint, ``(1, expires_at)`` on the
    # coordinator's clock (repro.cache.Footprint.value); None when the
    # query does not memoize.
    footprint: Optional[tuple] = None


@dataclass(frozen=True)
class ShutdownWorker:
    reason: str = "kernel shutdown"


# -- worker -> parent ---------------------------------------------------------


@dataclass(frozen=True)
class WorkerReady:
    worker_id: int
    pid: int


class FromChild(NamedTuple):
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


class BrokerRequest(NamedTuple):
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


# -- the wire form of the per-call envelopes ----------------------------------

#: Tags, the first field of a per-call envelope's tuple in a frame.  The
#: first four carry an envelope's fields in order; the others flatten the
#: per-call message into the tuple as well: a ``ParamTuple`` down, a
#: ``ResultTuple`` (with or without the call's ``EndOfCall``) or an
#: ``EndOfCall`` up.  An ``EndOfCall`` with a memo footprint (a memoizing
#: query's) travels pickled inside a plain ``FromChild``.
(
    TO_CHILD, FROM_CHILD, BROKER_REQUEST, BROKER_RESPONSE,
    PARAM, RESULT, RESULT_END, END,
) = range(8)


def _to_child(envelope: ToChild) -> tuple:
    child_id, message = envelope
    if type(message) is messages.ParamTuple:
        return PARAM, child_id, message.seq, message.row, message.span
    return TO_CHILD, child_id, message


def _from_child(envelope: FromChild) -> tuple:
    child_id, message, run = envelope
    kind = type(message)
    if kind is messages.ResultTuple:
        end = message.end_of_call
        if end is None:
            return RESULT, child_id, message.child, message.row, message.seq, run
        if end.footprint is None:
            return (
                RESULT_END, child_id, message.child, message.row, message.seq,
                end.child, end.seq, end.rows, end.service_time, run,
            )
    elif kind is messages.EndOfCall and message.footprint is None:
        return (
            END, child_id, message.child, message.seq, message.rows,
            message.service_time, run,
        )
    return FROM_CHILD, child_id, message, run


_ENCODERS = {
    ToChild: _to_child,
    FromChild: _from_child,
    BrokerRequest: lambda envelope: (BROKER_REQUEST, *envelope),
    BrokerResponse: lambda envelope: (BROKER_RESPONSE, *envelope),
}

_DECODERS = {
    TO_CHILD: lambda t: ToChild(t[1], t[2]),
    FROM_CHILD: lambda t: FromChild(t[1], t[2], t[3]),
    BROKER_REQUEST: lambda t: BrokerRequest._make(t[1:]),
    BROKER_RESPONSE: lambda t: BrokerResponse._make(t[1:]),
    PARAM: lambda t: ToChild(t[1], messages.ParamTuple(t[2], t[3], t[4])),
    RESULT: lambda t: FromChild(t[1], messages.ResultTuple(t[2], t[3], t[4]), t[5]),
    RESULT_END: lambda t: FromChild(
        t[1], messages.ResultTuple(t[2], t[3], t[4], messages.EndOfCall(*t[5:9])), t[9]
    ),
    END: lambda t: FromChild(t[1], messages.EndOfCall(*t[2:6]), t[6]),
}


def encode(envelopes: list) -> list:
    """A frame's envelopes as they are pickled: each per-call one a plain
    tuple, its tag first, so the pickle names no class for it."""
    encoders = _ENCODERS
    return [
        encoder(envelope) if (encoder := encoders.get(type(envelope))) else envelope
        for envelope in envelopes
    ]


def decode(items: list) -> list:
    """An unpickled frame, in place: each tuple whose first field is a tag
    becomes its envelope, holding the protocol message its handler
    consumes; anything else stays as it came."""
    decoders = _DECODERS
    for index, item in enumerate(items):
        if type(item) is tuple and (build := decoders.get(item[0])) is not None:
            items[index] = build(item)
    return items
