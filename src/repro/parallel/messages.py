"""The inter-process message protocol of ``FF_APPLYP`` (Sec. III.A).

Downlink (parent -> child):
    :class:`ShipPlanFunction`, :class:`ParamTuple`, :class:`ParamBatch`,
    :class:`Shutdown`.
Uplink (child -> parent, one shared inbox per operator instance):
    :class:`ResultTuple` (a call's last may carry its :class:`EndOfCall`),
    :class:`ResultBatch`, :class:`EndOfCall`, :class:`CallFailed`,
    :class:`ChildError`.
Internal to the parent's event loop (from its input pump task):
    :class:`InputAvailable`, :class:`InputExhausted`, :class:`InputFailed`;
    and from the per-child death watchers: :class:`ChildDied`.

A plan function travels as itself.  In-process children share the
sender's object, and so its compiled chain; a child in a worker process
gets an equal copy by pickle, node ids included, and compiles it there.

The per-tuple messages (:class:`ParamTuple`/:class:`ResultTuple`) are the
paper's protocol; the batch messages are the micro-batched extension that
amortizes ``message_latency`` over several calls (one message transit per
batch, per-row ship costs unchanged).  With ``ProcessCosts.batch_size=1``
only the per-tuple messages are ever sent — seed behavior, bit for bit.

Messages are plain dataclasses, not frozen ones (a frozen one builds
four times slower); nothing changes a message once it is sent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.algebra.plan import PlanFunction


@dataclass
class ShipPlanFunction:
    plan_function: "PlanFunction"
    # Observability (repro.obs): id of the sender-side span this message
    # belongs to, so child-side spans can link back to the invocation that
    # produced them across the process boundary.  -1 = tracing off.
    span: int = -1


@dataclass
class ParamTuple:
    seq: int
    row: tuple
    span: int = -1  # sender-side invocation span (repro.obs); -1 = off


@dataclass
class ParamBatch:
    """Several parameter tuples in one downlink message.

    Row ``i`` carries sequence number ``seq_start + i``; the child executes
    the rows as successive calls in order.
    """

    seq_start: int
    rows: tuple[tuple, ...]
    span: int = -1  # sender-side invocation span (repro.obs); -1 = off


@dataclass
class Shutdown:
    reason: str = "query finished"


@dataclass
class ResultTuple:
    child: str
    row: tuple
    # Sequence number of the call that produced the row, so the parent can
    # discard rows of calls it has already written off (a failed previous
    # invocation of a persistent pool).
    seq: int
    # The call's EndOfCall, riding on its last row (handled after the row).
    end_of_call: "EndOfCall | None" = None


@dataclass
class ResultBatch:
    """All result rows of one executed :class:`ParamBatch`, plus the
    per-call :class:`EndOfCall` metadata, in one uplink message.

    ``rows`` concatenates the calls' outputs in execution order;
    ``end_of_calls`` has one entry per completed call of the batch, so
    monitoring stays per-call exact even though messaging is batched.
    """

    child: str
    rows: tuple[tuple, ...]
    end_of_calls: tuple["EndOfCall", ...]


@dataclass
class EndOfCall:
    child: str
    seq: int
    rows: int  # tuples the call produced (monitoring input for AFF)
    # Child-side occupancy of the call in model seconds (plan-function
    # execution including per-row result shipping CPU).  Lets monitoring
    # distinguish slow calls from large results.
    service_time: float
    # The call's memo footprint (repro.cache.Footprint.value): the
    # memo-answerable web-service calls beneath it and the earliest
    # expiry among their entries.  None when the query does not memoize
    # or the call's bag must not be stored; the pool stores the bag
    # otherwise.
    footprint: "tuple[int, float | None] | None" = None


@dataclass
class ChildError:
    """The child hit an unrecoverable error and exits (``on_error="fail"``)."""

    child: str
    message: str
    # Sequence number of the failing call, so the parent can tell an error
    # of an abandoned invocation (the call is no longer in flight) from a
    # current one.  -1 = not tied to a call (protocol error): always fatal.
    seq: int = -1


@dataclass
class CallFailed:
    """One call failed, but the child keeps serving (``on_error != "fail"``).

    Carries everything the parent needs to handle the failure under its
    policy: the call's sequence number, the parameter row (for
    redelivery), and the error text.  No partial result rows of the call
    were shipped — the child buffers a call's rows until it succeeds, so
    redelivery cannot duplicate output.
    """

    child: str
    seq: int
    row: tuple
    message: str


@dataclass
class ChildDied:
    """A query process exited without being told to shut down.

    Sent to the parent's inbox by the per-child death watcher, never by
    the child itself, so it arrives even when the child crashed without a
    final message.
    """

    child: str
    reason: str = ""


@dataclass
class InputAvailable:
    row: tuple
    # Invocation epoch of the pump that sent the message.  A persistent
    # pool whose previous invocation failed can find that invocation's
    # input messages still in its inbox; the epoch lets the next
    # invocation drop them instead of replaying stale tuples.
    epoch: int = 0


@dataclass
class InputExhausted:
    epoch: int = 0


@dataclass
class InputFailed:
    message: str
    epoch: int = 0
