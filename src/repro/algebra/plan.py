"""Plan nodes and plan functions.

A plan is a tree of operator nodes, each with a static output ``schema``
(tuple of column names; runtime rows are plain tuples in schema order).
A plan function is shipped to child query processes by ``FF_APPLYP`` as
itself: an in-process child shares the object, a worker process gets an
equal copy by pickle.

Node inventory (paper correspondence):

* :class:`SingletonNode` — emits one empty row; the anchor below an OWF
  call with constant-only arguments (``GetAllStates`` in Fig 6).
* :class:`ParamNode` — the parameter-tuple stream inside a plan function
  (the ``<st1>`` input of PF1 in Fig 7).
* :class:`ApplyNode` — the γ apply operator: call a function per input row.
* :class:`MapNode` — compute a derived column (``concat`` in Fig 6).
* :class:`FilterNode` — a comparison filter (``equal`` in Fig 10).
* :class:`ProjectNode` — projection / column renaming.
* :class:`FFApplyNode` — ``FF_APPLYP``: ship a plan function to ``fanout``
  children and stream parameter tuples to them (Sec. III.A).
* :class:`AFFApplyNode` — ``AFF_APPLYP``: the adaptive variant (Sec. V.A).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count

from repro.algebra.expressions import RowExpr, render_expr
from repro.cache import PlanSignature
from repro.util.errors import PlanError


#: Fanout of AFF_APPLYP's initial balanced tree (paper Sec. V.A: binary).
INIT_FANOUT = 2


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class AdaptationParams:
    """Tuning of ``AFF_APPLYP`` (paper Sec. V.A).

    ``p``           children added per add stage.
    ``threshold``   relative improvement that re-triggers the add stage
                    (the paper evaluates 25 %).
    ``drop_stage``  whether a slowdown triggers dropping a child subtree.
    ``max_fanout``  safety bound on a single node's fanout.
    """

    p: int = 2
    threshold: float = 0.25
    drop_stage: bool = False
    max_fanout: int = 16

    def __post_init__(self) -> None:
        if not _is_int(self.p) or self.p < 1:
            raise PlanError(f"adaptation p must be an integer >= 1, got {self.p!r}")
        if not (isinstance(self.threshold, (int, float)) and 0.0 < self.threshold < 1.0):
            raise PlanError("adaptation threshold must be in (0, 1)")
        if not isinstance(self.drop_stage, bool):
            raise PlanError(f"adaptation drop_stage must be a bool, got {self.drop_stage!r}")
        if not _is_int(self.max_fanout) or self.max_fanout < INIT_FANOUT:
            raise PlanError(
                f"adaptation max_fanout must be an integer >= {INIT_FANOUT}, "
                f"got {self.max_fanout!r}"
            )


class PlanNode(ABC):
    """Base class: every node knows its output schema and children."""

    schema: tuple[str, ...]
    # The node compiled for the interpreter (repro.algebra.interpreter),
    # kept with it from its first execution: a cached plan compiles once.
    _pull_chain = None

    @abstractmethod
    def children(self) -> list["PlanNode"]: ...

    @abstractmethod
    def label(self) -> str:
        """One-line description used by plan rendering."""

    def __getstate__(self) -> dict:
        """Pickle (a plan function shipped to a worker process) without the
        compiled chain: the receiver compiles its own.  ``node_id`` is
        kept, so the receiver's nested pools stay keyed as the sender's."""
        state = self.__dict__.copy()
        state.pop("_pull_chain", None)
        return state


@dataclass
class SingletonNode(PlanNode):
    schema: tuple[str, ...] = ()

    def children(self) -> list[PlanNode]:
        return []

    def label(self) -> str:
        return "singleton"


@dataclass
class ParamNode(PlanNode):
    schema: tuple[str, ...]

    def children(self) -> list[PlanNode]:
        return []

    def label(self) -> str:
        return f"param<{', '.join(self.schema)}>"


@dataclass
class ApplyNode(PlanNode):
    """γ: for each input row, call ``function`` and append its outputs."""

    child: PlanNode
    function: str
    arguments: tuple[RowExpr, ...]
    out_columns: tuple[str, ...]
    schema: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        overlap = set(self.child.schema) & set(self.out_columns)
        if overlap:
            raise PlanError(
                f"apply of {self.function!r} would duplicate columns {overlap}"
            )
        self.schema = self.child.schema + self.out_columns

    def children(self) -> list[PlanNode]:
        return [self.child]

    def label(self) -> str:
        rendered = ", ".join(render_expr(a) for a in self.arguments)
        outs = ", ".join(self.out_columns)
        return f"γ {self.function}({rendered}) -> <{outs}>"


@dataclass
class MapNode(PlanNode):
    """Append one computed column."""

    child: PlanNode
    expression: RowExpr
    out_column: str
    schema: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.out_column in self.child.schema:
            raise PlanError(f"map would duplicate column {self.out_column!r}")
        self.schema = self.child.schema + (self.out_column,)

    def children(self) -> list[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return f"γ map {self.out_column} = {render_expr(self.expression)}"


_FILTER_OPS = ("=", "<", ">", "<=", ">=", "<>")


@dataclass
class FilterNode(PlanNode):
    child: PlanNode
    op: str
    left: RowExpr
    right: RowExpr
    schema: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.op not in _FILTER_OPS:
            raise PlanError(f"unknown filter operator {self.op!r}")
        self.schema = self.child.schema

    def children(self) -> list[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return f"σ {render_expr(self.left)} {self.op} {render_expr(self.right)}"


@dataclass
class ProjectNode(PlanNode):
    """Project/rename: each item is (output name, expression)."""

    child: PlanNode
    items: tuple[tuple[str, RowExpr], ...]
    schema: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        names = [name for name, _ in self.items]
        if len(set(names)) != len(names):
            raise PlanError(f"duplicate projection columns: {names}")
        self.schema = tuple(names)

    def children(self) -> list[PlanNode]:
        return [self.child]

    def label(self) -> str:
        rendered = ", ".join(
            name if str(expr) == name else f"{name}={render_expr(expr)}"
            for name, expr in self.items
        )
        return f"π {rendered}"


@dataclass
class DistinctNode(PlanNode):
    """Eliminate duplicate rows, streaming (first occurrence wins)."""

    child: PlanNode
    schema: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        self.schema = self.child.schema

    def children(self) -> list[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return "distinct"


@dataclass
class SortNode(PlanNode):
    """Order rows by one or more columns.  Blocking: runs in the
    coordinator, never inside a shipped plan function."""

    child: PlanNode
    keys: tuple[tuple[str, bool], ...]  # (column, ascending)
    schema: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        for column, _ in self.keys:
            if column not in self.child.schema:
                raise PlanError(
                    f"sort key {column!r} is not in the input schema "
                    f"{self.child.schema}"
                )
        self.schema = self.child.schema

    def children(self) -> list[PlanNode]:
        return [self.child]

    def label(self) -> str:
        rendered = ", ".join(
            f"{column}{'' if ascending else ' desc'}" for column, ascending in self.keys
        )
        return f"sort {rendered}"


@dataclass
class LimitNode(PlanNode):
    """Emit at most ``count`` rows, then stop consuming the child —
    in-flight web service calls below are abandoned early."""

    child: PlanNode
    count: int
    schema: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.count < 0:
            raise PlanError(f"limit must be non-negative, got {self.count}")
        self.schema = self.child.schema

    def children(self) -> list[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return f"limit {self.count}"


#: Aggregate kinds understood by :class:`AggregateNode` ("key" marks a
#: grouping column, the rest are accumulator kinds).
_AGGREGATE_KINDS = ("key", "count", "sum", "min", "max", "avg")


@dataclass
class AggregateNode(PlanNode):
    """Streaming hash aggregation with GROUP BY.

    ``items`` is the ordered output column list: ``(name, kind, expr)``
    where ``kind`` is ``"key"`` for a grouping column (the expression is
    the key value) or an accumulator kind (``count``/``sum``/``min``/
    ``max``/``avg``; the expression is the aggregated operand, a constant
    ``1`` for ``COUNT(*)``).  No ``"key"`` items means one global group:
    the node emits exactly one row, even over an empty input.

    Blocking: groups only close when the input ends, so the node always
    runs in the coordinator, never inside a shipped plan function.
    """

    child: PlanNode
    items: tuple[tuple[str, str, RowExpr], ...]
    schema: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        if not self.items:
            raise PlanError("aggregate requires at least one output item")
        names = [name for name, _, _ in self.items]
        if len(set(names)) != len(names):
            raise PlanError(f"duplicate aggregate output columns: {names}")
        for name, kind, _ in self.items:
            if kind not in _AGGREGATE_KINDS:
                raise PlanError(
                    f"unknown aggregate kind {kind!r} for column {name!r}"
                )
        self.schema = tuple(names)

    @property
    def key_items(self) -> tuple[tuple[str, str, RowExpr], ...]:
        return tuple(item for item in self.items if item[1] == "key")

    def children(self) -> list[PlanNode]:
        return [self.child]

    def label(self) -> str:
        rendered = ", ".join(
            name if kind == "key" else f"{name}={kind}({render_expr(expr)})"
            for name, kind, expr in self.items
        )
        return f"Γ {rendered}"


@dataclass
class UnionNode(PlanNode):
    """Bag union of same-schema sub-plans (the branches of an ``OR``).

    All inputs run concurrently; rows are emitted in branch order.  The
    planner always places a :class:`DistinctNode` above it, giving the
    dialect's documented set semantics for disjunction.
    """

    inputs: tuple[PlanNode, ...]
    schema: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        if len(self.inputs) < 2:
            raise PlanError("union requires at least two inputs")
        first = tuple(self.inputs[0].schema)
        for branch in self.inputs[1:]:
            if tuple(branch.schema) != first:
                raise PlanError(
                    f"union inputs have mismatched schemas: {first} vs "
                    f"{tuple(branch.schema)}"
                )
        self.schema = first

    def children(self) -> list[PlanNode]:
        return list(self.inputs)

    def label(self) -> str:
        return f"∪ {len(self.inputs)} branches"


@dataclass
class JoinNode(PlanNode):
    """Hash equi-join of two *independent* sub-plans.

    This implements the paper's future-work direction (Sec. VII): queries
    mixing dependent and independent web service calls.  Both inputs are
    evaluated concurrently (their service-call chains overlap in time);
    the right side is built into a hash table and probed with the left.
    """

    left: PlanNode
    right: PlanNode
    conditions: tuple[tuple[str, str], ...]  # (left column, right column)
    schema: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        if not self.conditions:
            raise PlanError("join requires at least one equality condition")
        overlap = set(self.left.schema) & set(self.right.schema)
        if overlap:
            raise PlanError(f"join inputs share column names: {sorted(overlap)}")
        for left_column, right_column in self.conditions:
            if left_column not in self.left.schema:
                raise PlanError(f"join key {left_column!r} not in left schema")
            if right_column not in self.right.schema:
                raise PlanError(f"join key {right_column!r} not in right schema")
        self.schema = self.left.schema + self.right.schema

    def children(self) -> list[PlanNode]:
        return [self.left, self.right]

    def label(self) -> str:
        rendered = ", ".join(f"{l} = {r}" for l, r in self.conditions)
        return f"⋈ {rendered}"


@dataclass
class PlanFunction:
    """A parameterized sub-query shipped to child query processes.

    ``body`` contains exactly one :class:`ParamNode` whose schema equals
    ``param_schema``; calling the plan function for a parameter tuple means
    executing the body with the param node bound to that single tuple.
    """

    name: str
    param_schema: tuple[str, ...]
    body: PlanNode

    @property
    def result_schema(self) -> tuple[str, ...]:
        return self.body.schema

    def signature(self) -> str:
        params = ", ".join(self.param_schema)
        results = ", ".join(self.result_schema)
        return f"{self.name}({params}) -> Stream of <{results}>"

    @cached_property
    def memo_signature(self) -> PlanSignature:
        """This plan function's key in the call memo: its structure as
        dataclass ``==`` compares it (``node_id`` is neither compared nor
        in the ``repr``, so every compilation of one definition shares
        entries)."""
        return PlanSignature(repr(self))

    @cached_property
    def operator_ids(self) -> tuple[str, ...]:
        """The ``node_id`` of every parallel operator in the body, at any
        depth: what tells two compilations of one definition apart."""
        ids: list[str] = []
        for node in walk(self.body):
            if isinstance(node, (FFApplyNode, AFFApplyNode)):
                ids.append(node.node_id)
                ids.extend(node.plan_function.operator_ids)
        return tuple(ids)


# Stable identities for parallel operator nodes, assigned at plan-build
# time.  Executor pools are keyed on these (never on ``id(node)``, which
# the allocator can reuse after a node is garbage collected).
_operator_ids = count(1)


def _next_operator_id(prefix: str) -> str:
    return f"{prefix}-{next(_operator_ids)}"


@dataclass
class FFApplyNode(PlanNode):
    """``FF_APPLYP(pf, fo, pstream)``: parallel apply of a plan function."""

    child: PlanNode  # produces pstream, the parameter-tuple stream
    plan_function: PlanFunction
    fanout: int
    schema: tuple[str, ...] = field(init=False)
    node_id: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.fanout < 1:
            raise PlanError(f"fanout must be >= 1, got {self.fanout}")
        if tuple(self.child.schema) != tuple(self.plan_function.param_schema):
            raise PlanError(
                f"FF_APPLYP input schema {self.child.schema} does not match "
                f"plan function parameters {self.plan_function.param_schema}"
            )
        self.schema = self.plan_function.result_schema
        self.node_id = _next_operator_id("ff")

    def children(self) -> list[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return (
            f"FF_APPLYP[{self.plan_function.name}, fo={self.fanout}]"
        )


@dataclass
class AFFApplyNode(PlanNode):
    """``AFF_APPLYP(pf, pstream)``: adaptive parallel apply (no fanout arg)."""

    child: PlanNode
    plan_function: PlanFunction
    params: AdaptationParams
    schema: tuple[str, ...] = field(init=False)
    node_id: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if tuple(self.child.schema) != tuple(self.plan_function.param_schema):
            raise PlanError(
                f"AFF_APPLYP input schema {self.child.schema} does not match "
                f"plan function parameters {self.plan_function.param_schema}"
            )
        self.schema = self.plan_function.result_schema
        self.node_id = _next_operator_id("aff")

    def children(self) -> list[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return (
            f"AFF_APPLYP[{self.plan_function.name}, p={self.params.p}, "
            f"drop={'on' if self.params.drop_stage else 'off'}]"
        )


def walk(node: PlanNode):
    """Depth-first iteration over a plan tree (node first, then children)."""
    yield node
    for child in node.children():
        yield from walk(child)
