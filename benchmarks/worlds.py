"""Synthetic services, and the naive evaluator every reference answer comes from.

A synthetic service is declared the way Romero et al. (PAPERS.md) model a
web service: each :class:`Operation` is a table keyed by its input columns
(its binding pattern) plus the :class:`EndpointProfile` of a call.  From
that declaration a :class:`Service` builds the
:class:`~repro.services.wsdl.WsdlDocument` it publishes (as real WSDL text,
through :func:`~repro.services.wsdl.render_wsdl`), answers calls from the
tables and supplies its ``ServiceCosts``.  Three families are built here:

* the **chain world** (:class:`WorldSpec`, :class:`World`): ``chains``
  root operations (``Chain0Root`` …) each producing ``roots`` rows with a
  ``key``, a ``tag`` from a small shared vocabulary and a ``score``; below
  each root, ``depth`` dependent step operations (``Chain0Step1(parent)``
  …) expanding every parent key into ``fanout``-ish child rows — the
  classic WSMED dependent-call shape — with optional latency skew (deeper
  levels are slower) and flaky operations (the first ``flaky_tries``
  invocations per argument raise a *retriable* ``ServiceFault``).  One
  ``random.Random(seed)`` drives the tables, so a spec names a world;
* the **optimizer scenarios**: ``ListRegions`` → slow ``AuditRegion`` /
  fast, selective ``CheckRegion`` listed adversarially
  (:data:`ADVERSARIAL_SQL`), and ``CodeOf``/``NameOf``, two inverse access
  paths of one relation, for the binding-pattern rewrite
  (:data:`REWRITE_SQL`); ``misdeclared=True`` lies about ``CheckRegion``'s
  fanout hint so the engine's drift detector must re-optimize;
* :data:`HASH_SERVICE`, the WSDL and costs of ``bench_mp_scaling``'s
  blocking ``HashState`` (that bench supplies the provider).

:func:`evaluate` is the specification the mediator is checked against:
nested loops over the tables, a predicate and a projection — no SQL
parser, calculus or algebra.  Every ``reference_*`` / ``expected_*`` bag
below is computed by it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.fdb.types import CHARSTRING, INTEGER, AtomicType
from repro.services.latency import EndpointProfile
from repro.services.registry import ServiceCosts, build_registry
from repro.services.wsdl import (
    WsdlDocument,
    WsdlOperation,
    XsdComplex,
    XsdElement,
    render_wsdl,
)
from repro.util.errors import ServiceFault
from repro.wsmed.system import WSMED

Column = tuple[str, AtomicType]
#: ``(alias, column)``: a column of the row a query step bound to ``alias``.
Ref = tuple[str, str]


def endpoint(service_time: float, fanout_hint: float | None = None) -> EndpointProfile:
    """The synthetic services' latency model: 10 ms round trip, no jitter."""
    return EndpointProfile(
        rtt=0.01,
        setup=0.0,
        service_time=service_time,
        jitter=0.0,
        fanout_hint=fanout_hint,
    )


@dataclass(frozen=True)
class Operation:
    """One operation: a table keyed by its input columns, and its profile.

    ``table`` maps a tuple of input values to the rows one call returns
    (dicts over ``outputs``); a key it lacks returns no rows.  A call
    answers ``{"<name>Result": {row: rows}}``.  The first ``fails_first``
    attempts per key raise a retriable ``ServiceFault``.
    """

    name: str
    inputs: tuple[Column, ...]
    row: str
    outputs: tuple[Column, ...]
    profile: EndpointProfile
    table: dict = field(default_factory=dict)
    fails_first: int = 0

    def wsdl(self) -> WsdlOperation:
        def atoms(columns):
            return tuple(XsdElement(name, atom=atom) for name, atom in columns)

        rows = XsdElement(self.row, complex=XsdComplex(atoms(self.outputs)), repeated=True)
        result = XsdElement(f"{self.name}Result", complex=XsdComplex((rows,)))
        return WsdlOperation(
            name=self.name,
            input_element=XsdElement(self.name, complex=XsdComplex(atoms(self.inputs))),
            output_element=XsdElement(f"{self.name}Response", complex=XsdComplex((result,))),
        )


@dataclass
class Service:
    """A provider (``uri``, ``wsdl_text``, ``invoke``) over its operations' tables.

    ``stem`` names the port (``<stem>Soap``) and the target namespace.
    """

    name: str
    stem: str
    uri: str
    operations: tuple[Operation, ...]
    capacity: int = 40
    _attempts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def document(self) -> WsdlDocument:
        return WsdlDocument(
            uri=self.uri,
            name=self.name,
            target_namespace=f"urn:bench:{self.stem.lower()}",
            service_name=self.name,
            port_name=f"{self.stem}Soap",
            operations={operation.name: operation.wsdl() for operation in self.operations},
        )

    def wsdl_text(self) -> str:
        return render_wsdl(self.document())

    def costs(self) -> ServiceCosts:
        return ServiceCosts(
            capacity=self.capacity,
            operations={operation.name: operation.profile for operation in self.operations},
        )

    def invoke(self, operation: str, arguments: list) -> dict:
        found = next((op for op in self.operations if op.name == operation), None)
        if found is None:
            raise ServiceFault(f"operation {operation!r} not implemented")
        key = tuple(arguments)
        if found.fails_first:
            count = self._attempts.get((operation, key), 0)
            self._attempts[(operation, key)] = count + 1
            if count < found.fails_first:
                raise ServiceFault(
                    f"{operation}({', '.join(map(repr, key))}) transient failure "
                    f"{count + 1}/{found.fails_first}",
                    retriable=True,
                )
        return {f"{operation}Result": {found.row: list(found.table.get(key, ()))}}


def build_wsmed(services, profile: str = "fast", **registry_kwargs) -> WSMED:
    """A WSMED over the standard four services plus ``services`` (not imported)."""
    registry = build_registry(
        profile,
        extra_providers=tuple(services),
        extra_costs={service.name: service.costs() for service in services},
        **registry_kwargs,
    )
    return WSMED(registry)


def tables_of(services) -> dict[str, dict]:
    return {op.name: op.table for service in services for op in service.operations}


def evaluate(
    tables: dict[str, dict],
    steps: list[tuple[str, str, tuple[Ref, ...]]],
    select: tuple[Ref, ...],
    where=None,
) -> list[tuple]:
    """The reference answer of a query over ``tables``, by nested loops.

    ``steps`` lists ``(alias, operation, arguments)`` in dependency order;
    ``arguments`` refer to columns of rows bound by earlier steps.  Each
    step looks its input key up in the operation's table — a call made by
    hand — and binds each row it returns.  Bindings that satisfy ``where``
    are projected through ``select``.
    """
    bindings: list[dict] = [{}]
    for alias, operation, arguments in steps:
        table = tables[operation]
        bindings = [
            {**bound, alias: row}
            for bound in bindings
            for row in table.get(tuple(bound[a][c] for a, c in arguments), ())
        ]
    return [
        tuple(bound[a][c] for a, c in select)
        for bound in bindings
        if where is None or where(bound)
    ]


# -- the chain world ---------------------------------------------------------------

TAG_POOL = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta")
ROW_COLUMNS = (("key", CHARSTRING), ("tag", CHARSTRING), ("score", INTEGER))


@dataclass(frozen=True)
class WorldSpec:
    """Knobs for one synthetic world (all defaults deliberately small)."""

    seed: int = 7
    chains: int = 2  # independent root operations
    depth: int = 2  # dependent step levels below each root
    roots: int = 5  # rows per root call
    fanout: int = 3  # mean child rows per step call
    tags: int = 4  # size of the shared tag vocabulary (<= len(TAG_POOL))
    skew: float = 0.0  # deeper levels run (1 + skew * level) times slower
    flaky_ops: int = 0  # step operations that fail transiently
    flaky_tries: int = 1  # failed attempts per argument before success
    base_service_time: float = 0.05
    capacity: int = 40

    def __post_init__(self) -> None:
        if self.chains < 1 or self.depth < 0 or self.roots < 1:
            raise ValueError(f"degenerate world spec: {self}")
        if self.tags < 1 or self.tags > len(TAG_POOL):
            raise ValueError(f"tags must be in 1..{len(TAG_POOL)}")


def _op_name(chain: int, level: int) -> str:
    return f"Chain{chain}Root" if level == 0 else f"Chain{chain}Step{level}"


class World:
    """One chain world: its tables, services, SQL and reference answers."""

    def __init__(self, spec: WorldSpec) -> None:
        self.spec = spec
        rng = random.Random(spec.seed)
        tags = TAG_POOL[: spec.tags]

        def row(key: str) -> dict:
            return {"key": key, "tag": rng.choice(tags), "score": rng.randint(0, 99)}

        # tables[operation][(parent key,)] -> rows; a root's key is ().
        self.tables: dict[str, dict] = {}
        for chain in range(spec.chains):
            parents = [row(f"c{chain}r{index}") for index in range(spec.roots)]
            self.tables[_op_name(chain, 0)] = {(): parents}
            for level in range(1, spec.depth + 1):
                table = {}
                for parent in parents:
                    count = max(0, spec.fanout + rng.randint(-1, 1))
                    table[(parent["key"],)] = [
                        row(f"{parent['key']}.{level}n{index}") for index in range(count)
                    ]
                self.tables[_op_name(chain, level)] = table
                parents = [child for rows in table.values() for child in rows]
        step_ops = [
            _op_name(chain, level)
            for chain in range(spec.chains)
            for level in range(1, spec.depth + 1)
        ]
        rng.shuffle(step_ops)
        self.flaky = frozenset(step_ops[: spec.flaky_ops])

    def services(self) -> list[Service]:
        """Fresh providers (fresh flaky-attempt counts) over the tables."""
        spec = self.spec
        return [
            Service(
                f"Chain{chain}Service",
                stem=f"Chain{chain}Service",
                uri=f"http://sim.example.com/chain{chain}.wsdl",
                operations=tuple(
                    Operation(
                        _op_name(chain, level),
                        inputs=(("parent", CHARSTRING),) if level else (),
                        row="Row",
                        outputs=ROW_COLUMNS,
                        profile=endpoint(
                            spec.base_service_time * (1.0 + spec.skew * level),
                            float(spec.fanout if level else spec.roots),
                        ),
                        table=self.tables[_op_name(chain, level)],
                        fails_first=(
                            spec.flaky_tries if _op_name(chain, level) in self.flaky else 0
                        ),
                    )
                    for level in range(spec.depth + 1)
                ),
                capacity=spec.capacity,
            )
            for chain in range(spec.chains)
        ]

    def build(self, profile: str = "fast", **registry_kwargs) -> WSMED:
        """A WSMED with every chain service imported."""
        services = self.services()
        wsmed = build_wsmed(services, profile, **registry_kwargs)
        for service in services:
            wsmed.import_wsdl(service.uri)
        return wsmed

    # -- query shapes: SQL and its reference answer from one step list ------

    def _steps(self, chain: int, prefix: str) -> tuple[list, str]:
        """One chain as :func:`evaluate` steps, and its leaf alias."""
        steps = [
            (
                f"{prefix}{level}",
                _op_name(chain, level),
                ((f"{prefix}{level - 1}", "key"),) if level else (),
            )
            for level in range(self.spec.depth + 1)
        ]
        return steps, f"{prefix}{self.spec.depth}"

    @staticmethod
    def _sql(select: str, steps: list, conds: tuple = (), tail: str = "") -> str:
        """``steps`` as SQL: one FROM item per step, its bindings as WHERE."""
        froms = ", ".join(f"{op} {alias}" for alias, op, _ in steps)
        conds = [
            f"{alias}.parent = {a}.{c}" for alias, _, arguments in steps for a, c in arguments
        ] + list(conds)
        where = f"WHERE  {' AND '.join(conds)}\n" if conds else ""
        return f"SELECT {select}\nFROM   {froms}\n{where}{tail}"

    def _wanted_tags(self) -> tuple[str, str]:
        tags = TAG_POOL[: self.spec.tags]
        return tags[0], tags[-1]

    def chain_sql(self, chain: int = 0, *, limit: int | None = None) -> str:
        """Expand one full chain; optionally LIMIT the result."""
        steps, leaf = self._steps(chain, "a")
        tail = f"LIMIT {limit}\n" if limit is not None else ""
        return self._sql(f"{leaf}.key, {leaf}.score", steps, tail=tail)

    def reference_chain(self, chain: int = 0) -> list[tuple]:
        """The row bag :meth:`chain_sql` must produce (any ``k`` of it under
        ``LIMIT k``)."""
        steps, leaf = self._steps(chain, "a")
        return sorted(evaluate(self.tables, steps, ((leaf, "key"), (leaf, "score"))))

    def join_sql(self, left: int = 0, right: int = 1) -> str:
        """Join two chains' leaf levels on the shared tag column."""
        (left_steps, ll), (right_steps, rl) = self._steps(left, "a"), self._steps(right, "b")
        return self._sql(
            f"{ll}.key AS left_key, {rl}.key AS right_key",
            left_steps + right_steps,
            (f"{ll}.tag = {rl}.tag",),
        )

    def reference_join(self, left: int = 0, right: int = 1) -> list[tuple]:
        (left_steps, ll), (right_steps, rl) = self._steps(left, "a"), self._steps(right, "b")
        return sorted(
            evaluate(
                self.tables,
                left_steps + right_steps,
                ((ll, "key"), (rl, "key")),
                where=lambda bound: bound[ll]["tag"] == bound[rl]["tag"],
            )
        )

    def aggregate_sql(self, chain: int = 0) -> str:
        """Group the chain's leaves by tag; count and sum scores."""
        steps, leaf = self._steps(chain, "a")
        return self._sql(
            f"{leaf}.tag, COUNT(*), SUM({leaf}.score), MAX({leaf}.score)",
            steps,
            tail=f"GROUP BY {leaf}.tag\n",
        )

    def reference_aggregate(self, chain: int = 0) -> list[tuple]:
        steps, leaf = self._steps(chain, "a")
        groups: dict[str, list] = {}
        for tag, score in evaluate(self.tables, steps, ((leaf, "tag"), (leaf, "score"))):
            groups.setdefault(tag, []).append(score)
        return sorted(
            (tag, len(scores), sum(scores), max(scores))
            for tag, scores in groups.items()
        )

    def or_sql(self, chain: int = 0) -> str:
        """Disjunctive tag filter over the chain's leaves."""
        steps, leaf = self._steps(chain, "a")
        first, last = self._wanted_tags()
        branch = f"({leaf}.tag = '{first}' OR {leaf}.tag = '{last}')"
        return self._sql(f"{leaf}.key, {leaf}.tag", steps, (branch,))

    def reference_or(self, chain: int = 0) -> list[tuple]:
        """A distinct union: each qualifying row once."""
        steps, leaf = self._steps(chain, "a")
        wanted = self._wanted_tags()
        rows = evaluate(
            self.tables,
            steps,
            ((leaf, "key"), (leaf, "tag")),
            where=lambda bound: bound[leaf]["tag"] in wanted,
        )
        return sorted(set(rows))


def build_world(spec: WorldSpec | None = None, **spec_kwargs) -> World:
    """Convenience: ``build_world(depth=3, flaky_ops=1)``."""
    return World(spec or WorldSpec(**spec_kwargs))


# -- the optimizer scenarios -------------------------------------------------------

REGION_COUNT = 12
FINDINGS_PER_REGION = 6
ACTIVE_EVERY = 4  # every 4th region is active -> true CheckRegion fanout 0.25
ITEM_COUNT = 8

REGIONS = [f"R{i:02d}" for i in range(REGION_COUNT)]
ACTIVE_REGIONS = [r for i, r in enumerate(REGIONS) if i % ACTIVE_EVERY == 0]
ITEMS = [(f"item{i}", f"C{i:02d}") for i in range(ITEM_COUNT)]

#: Lists the expensive audit before the selective probe: the heuristic
#: (query-order) plan audits every region, the cost plan probes first.
ADVERSARIAL_SQL = """
SELECT au.finding, au.severity
FROM   ListRegions lr, AuditRegion au, CheckRegion ck
WHERE  au.region = lr.region AND ck.region = lr.region
"""

#: Binds only the *name* side of ``NameOf``: a ``BindingError`` for the
#: heuristic planner, rewritten to the ``CodeOf`` access path by the cost one.
REWRITE_SQL = """
SELECT li.item, no.code
FROM   ListItems li, NameOf no
WHERE  no.name = li.item
"""

#: The hand-rewritten equivalent of :data:`REWRITE_SQL`.
REWRITE_DIRECT_SQL = """
SELECT li.item, co.code
FROM   ListItems li, CodeOf co
WHERE  co.name = li.item
"""

_REGION = (("region", CHARSTRING),)

SURVEY = Service(
    "SurveyService",
    stem="Survey",
    uri="http://sim.example.com/survey.wsdl",
    operations=(
        Operation(
            "ListRegions", (), "Region", _REGION, endpoint(0.04, float(REGION_COUNT)),
            {(): [{"region": region} for region in REGIONS]},
        ),
        Operation(
            "ListItems", (), "Item", (("item", CHARSTRING),), endpoint(0.04, float(ITEM_COUNT)),
            {(): [{"item": item} for item, _code in ITEMS]},
        ),
    ),
)

AUDIT = Service(
    "AuditService",
    stem="Audit",
    uri="http://sim.example.com/audit.wsdl",
    operations=(
        Operation(
            "AuditRegion", _REGION, "Finding",
            (("finding", CHARSTRING), ("severity", INTEGER)),
            endpoint(2.0, float(FINDINGS_PER_REGION)),
            {
                (region,): [
                    {"finding": f"{region}-F{j}", "severity": j % 3}
                    for j in range(FINDINGS_PER_REGION)
                ]
                for region in REGIONS
            },
        ),
    ),
)


def _probe(fanout_hint: float) -> Service:
    """``CheckRegion``: one ``active`` row for an active region, none otherwise."""
    return Service(
        "ProbeService",
        stem="Probe",
        uri="http://sim.example.com/probe.wsdl",
        operations=(
            Operation(
                "CheckRegion", _REGION, "Status", (("status", CHARSTRING),),
                endpoint(0.04, fanout_hint),
                {(region,): [{"status": "active"}] for region in ACTIVE_REGIONS},
            ),
        ),
    )


PROBE = _probe(1.0 / ACTIVE_EVERY)

DIRECTORY = Service(
    "DirectoryService",
    stem="Directory",
    uri="http://sim.example.com/directory.wsdl",
    operations=(
        Operation(
            "CodeOf", (("name", CHARSTRING),), "Entry", (("code", CHARSTRING),),
            endpoint(0.04, 1.0), {(item,): [{"code": code}] for item, code in ITEMS},
        ),
        Operation(
            "NameOf", (("code", CHARSTRING),), "Entry", (("name", CHARSTRING),),
            endpoint(0.04, 1.0), {(code,): [{"name": item}] for item, code in ITEMS},
        ),
    ),
)

OPTIMIZER_SERVICES = (SURVEY, AUDIT, PROBE, DIRECTORY)


def build_optimizer_world(
    misdeclared: bool = False, profile: str = "fast", **registry_kwargs
) -> WSMED:
    """A WSMED with the optimizer services imported and ``NameOf`` declared
    an access path of ``CodeOf``.

    ``misdeclared`` gives ``CheckRegion`` a fanout hint of 6.0 instead of
    its true 0.25: the advisory hint lies, the service itself does not, so
    only live observations can correct the plan.
    """
    services = (SURVEY, AUDIT, _probe(6.0) if misdeclared else PROBE, DIRECTORY)
    wsmed = build_wsmed(services, profile, **registry_kwargs)
    wsmed.import_all()
    wsmed.functions.declare_access_path("NameOf", "CodeOf", {"code": "code", "name": "name"})
    return wsmed


def expected_adversarial_rows() -> list[tuple]:
    """:data:`ADVERSARIAL_SQL`'s answer: findings of the active regions."""
    steps = [
        ("lr", "ListRegions", ()),
        ("au", "AuditRegion", (("lr", "region"),)),
        ("ck", "CheckRegion", (("lr", "region"),)),
    ]
    select = (("au", "finding"), ("au", "severity"))
    return sorted(evaluate(tables_of(OPTIMIZER_SERVICES), steps, select))


def expected_rewrite_rows() -> list[tuple]:
    """:data:`REWRITE_SQL`'s answer, through the ``CodeOf`` access path."""
    steps = [("li", "ListItems", ()), ("co", "CodeOf", (("li", "item"),))]
    select = (("li", "item"), ("co", "code"))
    return sorted(evaluate(tables_of(OPTIMIZER_SERVICES), steps, select))


# -- bench_mp_scaling's service ------------------------------------------------------

#: Declared only: ``bench_mp_scaling.HashProvider`` answers its calls.
HASH_SERVICE = Service(
    "HashService",
    stem="Hash",
    uri="http://sim.example.com/hash.wsdl",
    operations=(
        Operation(
            "HashState", (("state", CHARSTRING),), "Digests", (("digest", CHARSTRING),),
            endpoint(0.01),
        ),
    ),
    capacity=64,
)
