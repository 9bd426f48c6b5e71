"""The benchmark's inputs: a null-provider chain world, its seeded query
trace, and the reference answers every result row bag is diffed against.

Vendored (a trimmed copy of the idea in ``benchmarks/worlds.py``: no flaky
operations, no latency skew) so that a later edit to that module cannot
move the benchmark's inputs.  ``--seed`` drives the world's tables and the
trace; the program under test only ever sees the generated SQL.

The chain world's provider answers from dict lookups — no haversine, tiny
SOAP payloads — so what the ``engine_chain_mix`` workload times is the
mediator (broker, SOAP codec, plan interpreter, operator pools), not the
simulated service.
"""

from __future__ import annotations

import functools
import random
from collections import Counter

from repro import WSMED, build_registry
from repro.services.latency import EndpointProfile
from repro.services.providers import GEOPLACES_URI, TERRASERVICE_URI
from repro.services.registry import ServiceCosts

CHAINS = 2
DEPTH = 3
ROOTS = 6
FANOUT = 3
TAGS = ("alpha", "beta", "gamma", "delta")
TRACE_LENGTH = 40
LIMIT_K = 5
MODES = ("central", "parallel", "adaptive")
KINDS = ("chain", "join", "aggregate", "or", "limit")

_ROW_TYPE = """\
<complexType><sequence>
  <element name="{op}Result"><complexType><sequence>
    <element name="Row" maxOccurs="unbounded"><complexType><sequence>
      <element name="key" type="xsd:string"/>
      <element name="tag" type="xsd:string"/>
      <element name="score" type="xsd:int"/>
    </sequence></complexType></element>
  </sequence></complexType></element>
</sequence></complexType>"""


def _ops(chain: int) -> list[str]:
    return [f"Chain{chain}Root"] + [
        f"Chain{chain}Step{level}" for level in range(1, DEPTH + 1)
    ]


def _wsdl(chain: int) -> str:
    service = f"Chain{chain}Service"
    types, operations = [], []
    for index, op in enumerate(_ops(chain)):
        inputs = '<element name="parent" type="xsd:string"/>' if index else ""
        types.append(
            f'<element name="{op}"><complexType><sequence>{inputs}'
            "</sequence></complexType></element>"
            f'<element name="{op}Response">{_ROW_TYPE.format(op=op)}</element>'
        )
        operations.append(
            f'<operation name="{op}"><input element="{op}"/>'
            f'<output element="{op}Response"/></operation>'
        )
    return (
        f'<definitions name="{service}" targetNamespace="urn:e2e:{service}">'
        f"<types><schema>{''.join(types)}</schema></types>"
        f'<portType name="{service}Soap">{"".join(operations)}</portType>'
        f'<service name="{service}"><port name="{service}Soap"/></service>'
        "</definitions>"
    )


class _ChainProvider:
    """One chain's simulated service: every operation is a dict lookup."""

    def __init__(self, chain: int, tables: dict[str, dict[str, list]]) -> None:
        self.uri = f"http://e2e.example.com/chain{chain}.wsdl"
        self._wsdl = _wsdl(chain)
        self._tables = tables

    def wsdl_text(self) -> str:
        return self._wsdl

    def invoke(self, operation: str, arguments: list) -> dict:
        parent = arguments[0] if arguments else ""
        rows = self._tables[operation].get(parent, [])
        return {f"{operation}Result": {"Row": list(rows)}}


class ChainWorld:
    """Seeded tables, a WSMED over them, SQL builders and references."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)

        def rows(keys: list[str]) -> list[dict]:
            # Tags go round the vocabulary from a seeded start, so every seed
            # has the same tag counts — and with the fixed fanout the same
            # calls and rows per query: seeds vary the data, not the load.
            start = rng.randrange(len(TAGS))
            return [
                {
                    "key": key,
                    "tag": TAGS[(start + index) % len(TAGS)],
                    "score": rng.randint(0, 99),
                }
                for index, key in enumerate(keys)
            ]

        # tables[chain][operation][parent key] -> rows; roots use parent "".
        self.tables: list[dict[str, dict[str, list]]] = []
        for chain in range(CHAINS):
            ops = _ops(chain)
            parents = rows([f"c{chain}r{i}" for i in range(ROOTS)])
            tables = {ops[0]: {"": parents}}
            for level in range(1, DEPTH + 1):
                children = rows(
                    [
                        f"{parent['key']}.{level}n{i}"
                        for parent in parents
                        for i in range(FANOUT)
                    ]
                )
                tables[ops[level]] = {
                    parent["key"]: children[i * FANOUT : (i + 1) * FANOUT]
                    for i, parent in enumerate(parents)
                }
                parents = children
            self.tables.append(tables)
        self.leaves = [self._expand(chain) for chain in range(CHAINS)]

    def _expand(self, chain: int) -> list[dict]:
        ops = _ops(chain)
        rows = self.tables[chain][ops[0]][""]
        for op in ops[1:]:
            table = self.tables[chain][op]
            rows = [child for parent in rows for child in table[parent["key"]]]
        return rows

    def build(self) -> WSMED:
        """A WSMED (``fast`` profile) with both chain services imported."""
        profile = EndpointProfile(
            rtt=0.01, setup=0.0, service_time=0.05, jitter=0.0,
            fanout_hint=float(FANOUT),
        )
        providers = tuple(
            _ChainProvider(chain, self.tables[chain]) for chain in range(CHAINS)
        )
        costs = {
            f"Chain{chain}Service": ServiceCosts(
                capacity=40, operations={op: profile for op in _ops(chain)}
            )
            for chain in range(CHAINS)
        }
        registry = build_registry(
            "fast", extra_providers=providers, extra_costs=costs
        )
        wsmed = WSMED(registry)
        for provider in providers:
            wsmed.import_wsdl(provider.uri)
        return wsmed

    # -- SQL and reference answers, per query kind -----------------------------

    def _fragment(self, chain: int, prefix: str) -> tuple[list, list, str]:
        ops = _ops(chain)
        froms = [f"{op} {prefix}{level}" for level, op in enumerate(ops)]
        conds = [
            f"{prefix}{level}.parent = {prefix}{level - 1}.key"
            for level in range(1, DEPTH + 1)
        ]
        return froms, conds, f"{prefix}{DEPTH}"

    def query(self, kind: str, chain: int) -> tuple[str, Counter]:
        """``(sql, reference row bag)`` for one query of the given kind."""
        froms, conds, leaf = self._fragment(chain, "a")
        leaves = self.leaves[chain]
        if kind in ("chain", "limit"):
            select = f"{leaf}.key, {leaf}.score"
            rows = [(r["key"], r["score"]) for r in leaves]
        elif kind == "join":
            other_from, other_conds, other = self._fragment(1 - chain, "b")
            froms, conds = froms + other_from, conds + other_conds
            conds.append(f"{leaf}.tag = {other}.tag")
            select = f"{leaf}.key AS left_key, {other}.key AS right_key"
            rows = [
                (left["key"], right["key"])
                for left in leaves
                for right in self.leaves[1 - chain]
                if left["tag"] == right["tag"]
            ]
        elif kind == "aggregate":
            select = (
                f"{leaf}.tag, COUNT(*), SUM({leaf}.score), MAX({leaf}.score)"
            )
            groups: dict[str, list[int]] = {}
            for r in leaves:
                groups.setdefault(r["tag"], []).append(r["score"])
            rows = [(t, len(s), sum(s), max(s)) for t, s in groups.items()]
        elif kind == "or":
            wanted = (TAGS[0], TAGS[-1])
            conds.append(
                f"({leaf}.tag = '{wanted[0]}' OR {leaf}.tag = '{wanted[1]}')"
            )
            select = f"{leaf}.key, {leaf}.tag"
            rows = list(
                {(r["key"], r["tag"]) for r in leaves if r["tag"] in wanted}
            )
        else:
            raise ValueError(f"unknown query kind {kind!r}")
        sql = (
            f"SELECT {select}\nFROM {', '.join(froms)}\n"
            f"WHERE {' AND '.join(conds)}\n"
        )
        if kind == "aggregate":
            sql += f"GROUP BY {leaf}.tag\n"
        if kind == "limit":
            sql += f"LIMIT {LIMIT_K}\n"
        return sql, Counter(rows)

    def trace(self, seed: int) -> list[dict]:
        """The query trace: a seeded order of a fixed mix.

        Eight queries of every kind, spread over the three modes and both
        chains, so every seed runs the same work in another order and each
        ``engine.<kind>_ms_p50`` has the same number of samples.
        """
        entries = []
        for kind in KINDS:
            for index in range(TRACE_LENGTH // len(KINDS)):
                mode = MODES[index % len(MODES)]
                sql, reference = self.query(kind, index % CHAINS)
                # One fanout per parallelizable level: a join has two chains'
                # levels, an OR one copy of the chain per disjunct.
                levels = DEPTH * (2 if kind in ("join", "or") else 1)
                entries.append(
                    {
                        "kind": kind,
                        "mode": mode,
                        "fanouts": [2] * levels if mode == "parallel" else None,
                        "sql": sql,
                        "reference": reference,
                    }
                )
        random.Random(seed * 7919 + 1).shuffle(entries)
        return entries


def rows_match(kind: str, rows, reference: Counter) -> bool:
    """Row bag equality; LIMIT rows are any k of the reference bag."""
    bag = Counter(tuple(row) for row in rows)
    if kind == "limit":
        expected = min(LIMIT_K, sum(reference.values()))
        return sum(bag.values()) == expected and not bag - reference
    return bag == reference


# -- Query1 by hand ------------------------------------------------------------

SMALL_SQL = "SELECT gs.Name FROM GetAllStates gs"


@functools.cache  # callers only read the result
def walk_query1() -> tuple[list[tuple], Counter, Counter]:
    """Evaluate the paper's Query1 by calling the providers directly.

    Walks GetAllStates -> GetPlacesWithin -> GetPlaceList in dependency
    order over the standard registry, never through the query processor.
    Returns the 311 calls as ``(uri, service, operation, arguments)``,
    Query1's reference row bag (360 rows) and the reference bag of
    :data:`SMALL_SQL` (50 state names).  The geo data comes from the
    registry's own fixed seed — it is what pins the paper's 311 calls —
    so ``--seed`` does not vary the Query1 workloads.
    """
    by_uri = {p.uri: p for p in build_registry("fast").providers}
    geo, terra = by_uri[GEOPLACES_URI], by_uri[TERRASERVICE_URI]
    calls = [(GEOPLACES_URI, "GeoPlaces", "GetAllStates", [])]
    states = geo.invoke("GetAllStates", [])["GetAllStatesResult"]["GeoPlaceDetails"]
    rows = []
    place_calls = []
    for state in states:
        arguments = ["Atlanta", state["State"], 15.0, "City"]
        calls.append((GEOPLACES_URI, "GeoPlaces", "GetPlacesWithin", arguments))
        found = geo.invoke("GetPlacesWithin", arguments)
        for place in found["GetPlacesWithinResult"]["GeoPlaceDistance"]:
            arguments = [f"{place['ToCity']}, {place['ToState']}", 100, True]
            place_calls.append(
                (TERRASERVICE_URI, "TerraService", "GetPlaceList", arguments)
            )
            listed = terra.invoke("GetPlaceList", arguments)
            rows.extend(
                (fact["placename"], fact["state"])
                for fact in listed["GetPlaceListResult"]["PlaceFacts"]
            )
    return (
        calls + place_calls,
        Counter(rows),
        Counter((state["Name"],) for state in states),
    )
