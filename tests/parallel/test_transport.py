"""Round-trips for everything that crosses an OS pipe.

The multi-process kernel ships two protocol layers between the
coordinator and its workers: the query protocol of ``FF_APPLYP``
(:mod:`repro.parallel.messages`, wrapped in ``ToChild``/``FromChild``)
and the transport envelopes (:mod:`repro.runtime.wire`).  These tests
lock the wire format down: every message type must survive
``pickle.dumps``/``loads`` unchanged — including the plan functions a
``ShipPlanFunction`` carries to a worker, nested operator ids and all —
and every envelope must survive a frame, ``write_frame`` to
``read_frames``.  In a frame the per-call envelopes are tag-first tuples
of plain values: their pickle names no class at all.
"""

import pickle
import pickletools
import socket

import pytest

from repro import QUERY1_SQL, QUERY2_SQL, QueryOptions, WSMED
from repro.algebra.plan import AFFApplyNode, FFApplyNode, ParamNode, PlanFunction, walk
from repro.cache import CacheConfig, CacheStats
from repro.fdb.types import BOOLEAN, CHARSTRING, INTEGER, REAL, AtomicType
from repro.obs.run import FaultStats, MessageStats, TreeStats
from repro.obs.spans import Span
from repro.parallel import messages
from repro.parallel.faults import FaultInjection
from repro.runtime import wire
from repro.runtime.workers import read_frames, write_frame
from repro.services.broker import CallStats


def roundtrip(value):
    return pickle.loads(pickle.dumps(value))


END = messages.EndOfCall(child="q3", seq=7, rows=15, service_time=0.82)

QUERY_MESSAGES = [
    messages.ShipPlanFunction(PlanFunction("pf1", ("a",), ParamNode(schema=("a",))), span=4),
    messages.ParamTuple(seq=3, row=("Georgia", 15.0), span=9),
    messages.ParamBatch(seq_start=4, rows=(("a",), ("b",)), span=-1),
    messages.Shutdown(reason="query finished"),
    messages.ResultTuple(child="q2", row=("Atlanta", "GA"), seq=5),
    messages.ResultBatch(child="q2", rows=(("x",), ("y",)), end_of_calls=(END,)),
    END,
    messages.ChildError(child="q4", message="boom"),
    messages.CallFailed(child="q4", seq=2, row=("AL",), message="timeout"),
    messages.ChildDied(child="q5", reason="worker died"),
    messages.InputAvailable(row=(1, 2), epoch=3),
    messages.InputExhausted(epoch=3),
    messages.InputFailed(message="upstream failed", epoch=1),
]

#: A traced worker run's drain: finished spans, call statistics, counter deltas.
RUN_DELTA = (
    [Span(id=3_000_001, name="call#4", category="call", process="q7", start=1.0, end=1.5)],
    {"GetPlaceList": CallStats(calls=2, rows=14, bytes_transferred=1200)},
    CacheStats(hits=4, misses=2),
    MessageStats(param_tuples=3, flushes={"size": 1}),
    TreeStats(processes_spawned=2, alive={("q7", "PF2"): 2}),
    FaultStats(respawns=1),
)

WIRE_ENVELOPES = [
    wire.AnchorClock(model_now=12.5, time_scale=0.001),
    wire.RegisterFunctions(payload=b"\x80\x04]", stubs=("getallstates",)),
    wire.RegisterServices(payload=b"\x80\x04N.", seed=2009),
    wire.SpawnChild(
        child_id=3,
        name="q7",
        costs=None,
        cache_config=None,
        retries=2,
        retry_backoff=0.25,
        on_error="retry",
        faults=FaultInjection(call_failure_probability=0.1, service_fault_probability=0.05),
        tracing=True,
        span_base=3_000_000,
    ),
    wire.RebindChild(
        child_id=3,
        cache_config=CacheConfig(enabled=True, ttl=30.0),
        retries=1,
        on_error="skip",
        tracing=False,
        span_base=0,
    ),
    wire.ToChild(child_id=3, payload=messages.ParamTuple(seq=0, row=("GA",))),
    wire.CancelChild(child_id=3),
    wire.Ping(seq=41),
    wire.BrokerResponse(request_id=17, payload=("rows",), error=None, outcome="hit"),
    wire.BrokerResponse(request_id=18, payload=None, error=("fault", "down", True)),
    wire.ShutdownWorker(reason="kernel shutdown"),
    wire.WorkerReady(worker_id=1, pid=4242),
    wire.FromChild(child_id=3, payload=END, run=RUN_DELTA),
    wire.ChildExited(child_id=3, error=None),
    wire.ChildExited(child_id=4, error="ValueError: bad row", run=RUN_DELTA),
    wire.BrokerRequest(
        request_id=17,
        child_id=3,
        uri="geo.wsdl",
        service="GeoPlaces",
        operation="GetPlaceList",
        arguments=("Decatur, GA", 100, "true"),
        obs_span=3_000_017,
    ),
    wire.Pong(seq=41, worker_id=1),
]


#: The per-call envelopes in every shape the frame codec flattens, and with
#: the payloads it passes through as objects.
PER_CALL_ENVELOPES = [
    wire.ToChild(3, messages.ParamTuple(seq=5, row=("Atlanta", "Georgia", 15.0), span=9)),
    wire.ToChild(3, messages.ParamBatch(seq_start=4, rows=(("a",), ("b",)))),
    wire.ToChild(3, messages.Shutdown(reason="query finished")),
    wire.FromChild(3, messages.ResultTuple(child="q7", row=("Decatur", "GA"), seq=5)),
    wire.FromChild(
        3, messages.ResultTuple(child="q7", row=("Decatur", "GA"), seq=7, end_of_call=END)
    ),
    wire.FromChild(3, END),
    wire.FromChild(3, messages.CallFailed(child="q7", seq=2, row=("AL",), message="x")),
    wire.FromChild(3, messages.ResultBatch(child="q2", rows=(), end_of_calls=(END,))),
    wire.BrokerResponse(request_id=19, payload=(("Atlanta", "GA", 1.5, True),)),
    wire.BrokerResponse(request_id=20, payload=(), outcome="collapsed"),
]


def frame_roundtrip(envelopes: list) -> list:
    """``envelopes`` through one frame: write it, read it back."""
    left, right = socket.socketpair()
    try:
        write_frame(left, envelopes)
        frames, closed = read_frames(right, bytearray())
    finally:
        left.close()
        right.close()
    assert not closed and len(frames) == 1
    return frames[0]


def shape(value):
    """``value`` with the type of everything in it: named tuples compare
    equal to plain ones and across classes, ``1 == 1.0 == True``."""
    if isinstance(value, tuple):
        return type(value), [shape(item) for item in value]
    if hasattr(value, "__dataclass_fields__"):
        return type(value), shape(tuple(vars(value).values()))
    return type(value), value


@pytest.mark.parametrize(
    "envelope", WIRE_ENVELOPES + PER_CALL_ENVELOPES, ids=lambda e: type(e).__name__
)
def test_every_envelope_survives_a_frame(envelope) -> None:
    (received,) = frame_roundtrip([envelope])
    assert received == envelope
    assert shape(received) == shape(envelope)


def test_a_frame_keeps_its_envelopes_in_order() -> None:
    envelopes = WIRE_ENVELOPES + PER_CALL_ENVELOPES
    assert [shape(e) for e in frame_roundtrip(envelopes)] == [shape(e) for e in envelopes]


def test_a_frame_of_per_call_envelopes_names_no_class() -> None:
    """A call's traffic — parameters down, rows and its end up, the broker
    round trip with the answer's rows — pickles as plain tuples: no class
    reference, nothing rebuilt through a constructor call."""
    frame = [
        wire.ToChild(3, messages.ParamTuple(seq=5, row=("Atlanta", "Georgia", 15.0, "City"))),
        wire.BrokerRequest(17, 3, "geo.wsdl", "GeoPlaces", "GetPlacesWithin",
                           ("Atlanta", "Georgia", 15.0, "City"), obs_span=-1),
        wire.BrokerResponse(17, payload=(("Decatur", "GA", 5.4), ("Marietta", "GA", 14.9))),
        wire.FromChild(3, messages.ResultTuple(child="q7", row=("Decatur", "GA"), seq=5)),
        wire.FromChild(
            3, messages.ResultTuple(child="q7", row=("Marietta", "GA"), seq=5, end_of_call=END)
        ),
        wire.FromChild(3, END),
    ]
    left, right = socket.socketpair()
    try:
        write_frame(left, frame)
        data = right.recv(1 << 16)
    finally:
        left.close()
        right.close()
    opcodes = {opcode.name for opcode, _, _ in pickletools.genops(data[4:])}
    assert not opcodes & {
        "GLOBAL", "STACK_GLOBAL", "INST", "OBJ", "NEWOBJ", "NEWOBJ_EX", "REDUCE", "BUILD",
    }
    assert frame_roundtrip(frame) == frame


@pytest.mark.parametrize(
    "message", QUERY_MESSAGES, ids=lambda m: type(m).__name__
)
def test_query_protocol_message_roundtrips(message) -> None:
    assert roundtrip(message) == message


@pytest.mark.parametrize(
    "envelope", WIRE_ENVELOPES, ids=lambda e: type(e).__name__
)
def test_wire_envelope_roundtrips(envelope) -> None:
    assert roundtrip(envelope) == envelope


def test_wire_module_exports_are_covered() -> None:
    """Adding an envelope without a round-trip test should fail here."""
    from dataclasses import is_dataclass

    def envelope_class(value) -> bool:  # a frozen dataclass or a named tuple
        return is_dataclass(value) or (
            isinstance(value, type) and issubclass(value, tuple) and hasattr(value, "_fields")
        )

    declared = {
        name
        for name, value in vars(wire).items()
        if envelope_class(value) and not name.startswith("_")
    }
    covered = {type(envelope).__name__ for envelope in WIRE_ENVELOPES}
    assert declared == covered


def test_messages_module_exports_are_covered() -> None:
    from dataclasses import is_dataclass

    declared = {
        name
        for name, value in vars(messages).items()
        if is_dataclass(value) and not name.startswith("_")
    }
    covered = {type(message).__name__ for message in QUERY_MESSAGES}
    assert declared == covered


# -- serialized plan functions ------------------------------------------------


@pytest.fixture(scope="module")
def wsmed() -> WSMED:
    system = WSMED(profile="fast")
    system.import_all()
    return system


def _plan_functions(wsmed, sql, **kwargs) -> list[PlanFunction]:
    plan = wsmed.plan(sql, options=QueryOptions(**kwargs))
    found = []

    def walk(node) -> None:
        plan_function = getattr(node, "plan_function", None)
        if isinstance(plan_function, PlanFunction):
            found.append(plan_function)
        for attribute in ("child", "left", "right"):
            sub = getattr(node, attribute, None)
            if sub is not None:
                walk(sub)
        if isinstance(plan_function, PlanFunction):
            walk(plan_function.body)

    walk(plan)
    return found


@pytest.mark.parametrize(
    "sql", [QUERY1_SQL, QUERY2_SQL], ids=["query1", "query2"]
)
def test_serialized_plan_functions_roundtrip(wsmed, sql) -> None:
    functions = _plan_functions(wsmed, sql, mode="parallel", fanouts=[3, 2])
    assert functions, "parallel plans must contain plan functions"
    for function in functions:
        rebuilt = roundtrip(function)
        assert rebuilt == function
        assert rebuilt.memo_signature == function.memo_signature
        assert rebuilt.operator_ids == function.operator_ids
        assert rebuilt.name == function.name
        assert rebuilt.param_schema == function.param_schema
    nested = [
        node
        for function in functions
        for node in walk(function.body)
        if isinstance(node, (FFApplyNode, AFFApplyNode))
    ]
    assert nested, "the outer plan function nests a parallel operator"


def test_ship_plan_function_message_roundtrips_with_real_payload(wsmed) -> None:
    function = _plan_functions(wsmed, QUERY1_SQL, mode="parallel", fanouts=[5, 4])[0]
    message = messages.ShipPlanFunction(function, span=12)
    assert roundtrip(message) == message


# -- type-system singletons ---------------------------------------------------


@pytest.mark.parametrize(
    "atomic", [INTEGER, REAL, CHARSTRING, BOOLEAN], ids=lambda t: t.name
)
def test_atomic_types_stay_singletons_across_pickling(atomic) -> None:
    """Type objects are compared by identity throughout the interpreter;
    a worker process unpickling a FunctionDef must get the *same*
    AtomicType objects, not equal copies."""
    restored = roundtrip(atomic)
    assert restored is atomic
    assert roundtrip((atomic, atomic))[0] is atomic


def test_unknown_atomic_type_roundtrips_by_value() -> None:
    """Non-singleton atoms (none exist today) still travel correctly."""
    original = AtomicType("Datetime")
    assert roundtrip(original) == original
