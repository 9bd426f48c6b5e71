"""Shared test fixtures: a fully wired WSMED-style world.

Builds the function registry (OWFs for all four services plus the
``getzipcode`` helping function) against a chosen cost profile, the way the
WSMED facade does, but exposed piecemeal so planner tests can poke at the
intermediate representations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.central import create_central_plan
from repro.algebra.interpreter import ExecutionContext, compile_plan
from repro.cache import CallMemo, PlanSignature
from repro.calculus.generator import generate_calculus
from repro.fdb.functions import FunctionRegistry, helping_function
from repro.fdb.types import CHARSTRING, TupleType
from repro.obs.run import QueryRun
from repro.parallel.faults import FaultInjection
from repro.parallel.pools import close_pools, install_pools
from repro.runtime.simulated import SimKernel
from repro.services.registry import ServiceRegistry, build_registry
from repro.sql.parser import parse_query
from repro.wsmed.owf import generate_owf

async def run_in_context(ctx: ExecutionContext, plan, costs) -> list[tuple]:
    """Every row of ``plan`` run as the coordinator of ``ctx``, with the
    pool acquirer and the teardown of :meth:`repro.WSMED.run_plan`."""
    install_pools(ctx, costs)
    chunks = compile_plan(plan).chunks(ctx, None)
    try:
        return [row async for chunk in chunks for row in chunk]
    finally:
        await close_pools(ctx, chunks)


QUERY1_SQL = """
Select gl.placename, gl.state
From   GetAllStates gs, GetPlacesWithin gp, GetPlaceList gl
Where  gs.State = gp.state and gp.distance = 15.0
  and  gp.placeTypeToFind = 'City' and gp.place = 'Atlanta'
  and  gl.placeName = gp.ToCity + ', ' + gp.ToState
  and  gl.MaxItems = 100 and gl.imagePresence = 'true'
"""

QUERY2_SQL = """
select gp.ToState, gp.zip
From   GetAllStates gs, GetInfoByState gi, getzipcode gc, GetPlacesInside gp
Where  gs.State = gi.USState and
       gi.GetInfoByStateResult = gc.zipstr and
       gc.zipcode = gp.zip and
       gp.ToPlace = 'USAF Academy'
"""


def getzipcode_function():
    """The paper's helping function extracting zip codes from a string."""
    return helping_function(
        "getzipcode",
        [("zipstr", CHARSTRING)],
        TupleType((("zipcode", CHARSTRING),)),
        lambda zipstr: [(code,) for code in zipstr.split(",") if code],
        documentation="Extracts the set of zip codes from a comma-separated string.",
    )


def wsdl_uri(wsmed, owf: str) -> str:
    """The WSDL document ``owf`` was imported from, read off the catalog."""
    (uri,) = {row[0] for row in wsmed.catalog.operations.scan() if row[3] == owf}
    return uri


def forget(memo: CallMemo, operations: set[str], plan_functions: set[str]) -> None:
    """Drop from ``memo`` the answers of ``operations`` and the bags of the
    plan functions named ``plan_functions``, so that the next query's warm
    children serve those tuples again and call those operations anew."""
    prefixes = tuple(f"PlanFunction(name={name!r}," for name in plan_functions)
    for key in list(memo.entries):
        if (
            key[0].definition.startswith(prefixes)
            if isinstance(key[0], PlanSignature)
            else key[2] in operations
        ):
            del memo.entries[key]


def build_functions(registry: ServiceRegistry) -> FunctionRegistry:
    functions = FunctionRegistry()
    for document in registry.documents.values():
        for operation_name in document.operations:
            functions.register(generate_owf(document, operation_name).as_function())
    functions.register(getzipcode_function())
    return functions


@dataclass
class World:
    """A wired test world: services + functions, ready to run plans."""

    registry: ServiceRegistry
    functions: FunctionRegistry

    def calculus(self, sql: str, name: str = "Query"):
        return generate_calculus(parse_query(sql), self.functions, name)

    def central_plan(self, sql: str, name: str = "Query"):
        return create_central_plan(self.calculus(sql, name), self.functions)

    def run_central(self, sql: str, *, faults: FaultInjection | None = None):
        """Execute the central plan under the injection ``faults``; returns
        (rows, kernel, broker)."""
        plan = self.central_plan(sql)
        kernel = SimKernel()
        broker = self.registry.bind(kernel)
        ctx = ExecutionContext(
            kernel=kernel,
            broker=broker,
            functions=self.functions,
            run=QueryRun(faults=faults),
        )
        rows = kernel.run(compile_plan(plan).rows(ctx))
        return rows, kernel, broker


def make_world(profile: str = "fast", **registry_kwargs) -> World:
    registry = build_registry(profile, **registry_kwargs)
    return World(registry=registry, functions=build_functions(registry))
