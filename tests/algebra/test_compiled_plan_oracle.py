"""The compiled pull chain against the recursive walker it replaced.

``compile_plan`` must be a pure speed change: for every plan the rows come
out in the same sequence, the model clock reads the same, and a failing
plan fails with the same error as the walker in
``tests/algebra/reference_interpreter.py`` (the oracle).  Parallel plans
are checked end to end: the oracle run swaps the walker in at the
coordinator *and* inside every child, so the comparison covers the
folded end-of-call too (the oracle chain is never ``single``, so its
children send every ``EndOfCall`` on its own).
"""

from collections import Counter

import pytest

from benchmarks.e2e.world import ChainWorld
from repro import QUERY1_SQL, QUERY2_SQL, AsyncioKernel, QueryOptions, WSMED
from repro.algebra.expressions import ColExpr, ConstExpr
from repro.algebra.interpreter import ExecutionContext, compile_plan
from repro.algebra.plan import (
    ApplyNode,
    FilterNode,
    LimitNode,
    ParamNode,
    SingletonNode,
)
from repro.fdb.functions import FunctionRegistry, helping_function
from repro.fdb.types import INTEGER, TupleType
from repro.runtime.simulated import SimKernel
from repro.util.errors import PlanError, ReproError

from tests.algebra import reference_interpreter as oracle


@pytest.fixture
def use_oracle(monkeypatch):
    """Run every plan — coordinator and children — through the walker."""

    def swap():
        monkeypatch.setattr("repro.wsmed.system.compile_plan", oracle.oracle_chain)
        monkeypatch.setattr("repro.parallel.process.compile_plan", oracle.oracle_chain)

    return swap


def _paper() -> WSMED:
    system = WSMED(profile="paper")
    system.import_all()
    return system


PAPER_CASES = [
    (QUERY1_SQL, QueryOptions(mode="central")),
    (QUERY1_SQL, QueryOptions(mode="parallel", fanouts=[5, 4])),
    (QUERY1_SQL, QueryOptions(mode="adaptive")),
    (QUERY2_SQL, QueryOptions(mode="central")),
    (QUERY2_SQL, QueryOptions(mode="parallel", fanouts=[4, 3])),
    (QUERY2_SQL, QueryOptions(mode="adaptive")),
]


@pytest.mark.parametrize(
    "sql, options", PAPER_CASES, ids=lambda case: getattr(case, "mode", "")
)
def test_paper_queries_match_the_walker_row_for_row(sql, options, use_oracle) -> None:
    compiled = _paper().sql(sql, options=options)
    use_oracle()
    walked = _paper().sql(sql, options=options)
    assert compiled.rows == walked.rows
    assert compiled.elapsed == walked.elapsed
    assert compiled.total_calls == walked.total_calls
    if options.mode != "central":
        # The walker really ran in the children: none of its calls folded.
        folded = walked.message_stats.end_of_calls - compiled.message_stats.end_of_calls
        assert folded > 0


@pytest.mark.parametrize("mode", ["central", "parallel", "adaptive"])
def test_query1_bag_matches_the_walker_on_asyncio(mode, use_oracle) -> None:
    system = WSMED(profile="fast")
    system.import_all()
    fanouts = [5, 4] if mode == "parallel" else None

    def run():
        kernel = AsyncioKernel(time_scale=1e-5)
        return system.sql(
            QUERY1_SQL, options=QueryOptions(mode=mode, fanouts=fanouts, kernel=kernel)
        )

    compiled = run()
    use_oracle()
    assert Counter(compiled.rows) == Counter(run().rows)


def _chain_queries(world: ChainWorld) -> list[tuple[str, str]]:
    """Every node kind: chain, join, aggregate with and without GROUP BY,
    OR -> Distinct(Union), LIMIT (k and 0) and ORDER BY."""
    chain, _ = world.query("chain", 0)
    queries = [(kind, world.query(kind, 0)[0]) for kind in ("chain", "join", "aggregate", "or")]
    select_leaf = chain.split("\n", 1)[1]
    queries += [
        ("global_aggregate", "SELECT COUNT(*), SUM(a3.score), MIN(a3.key)\n" + select_leaf),
        ("limit", chain + "LIMIT 5\n"),
        ("limit0", chain + "LIMIT 0\n"),
        ("sort", chain + "ORDER BY a3.score DESC, a3.key\n"),
    ]
    return queries


@pytest.mark.parametrize("mode", ["central", "parallel", "adaptive"])
def test_chain_world_node_kinds_match_the_walker(mode, use_oracle) -> None:
    world = ChainWorld(5)
    queries = _chain_queries(world)

    def run_all():
        system = world.build()
        results = {}
        for kind, sql in queries:
            levels = 6 if kind in ("join", "or") else 3
            options = QueryOptions(
                mode=mode, fanouts=[2] * levels if mode == "parallel" else None
            )
            result = system.sql(sql, options=options)
            results[kind] = (result.rows, result.elapsed, result.total_calls)
        return results

    compiled = run_all()
    use_oracle()
    walked = run_all()
    assert compiled == walked
    assert compiled["limit0"][0] == []
    assert len(compiled["limit"][0]) == 5
    assert len(compiled["global_aggregate"][0]) == 1


# -- errors: the same PlanError, on the same row ---------------------------------


def _numbers_registry(rows) -> FunctionRegistry:
    functions = FunctionRegistry()
    functions.register(
        helping_function(
            "numbers", [], TupleType((("n", INTEGER),)), lambda: list(rows)
        )
    )
    return functions


def _both(plan, functions):
    """``(compiled, walked)``: rows, or the error each raised."""
    outcomes = []
    compiled = lambda node, ctx: compile_plan(node).rows(ctx)  # noqa: E731
    for collect in (compiled, oracle.collect_rows):
        kernel = SimKernel()
        ctx = ExecutionContext(kernel=kernel, broker=None, functions=functions)
        try:
            outcomes.append(kernel.run(collect(plan, ctx)))
        except ReproError as error:
            outcomes.append((type(error), str(error)))
    return outcomes


def _numbers_over(function="numbers", width=("n",)):
    return ApplyNode(SingletonNode(), function, (), width)


def test_filter_type_error_is_the_same_plan_error() -> None:
    functions = _numbers_registry([(1,), ("two",), (3,)])
    plan = FilterNode(_numbers_over(), ">", ColExpr("n"), ConstExpr(0))
    compiled, walked = _both(plan, functions)
    assert compiled == walked
    assert compiled[0] is PlanError and "filter" in compiled[1]


def test_limit_satisfied_before_a_failing_row_succeeds_in_both() -> None:
    """Rows stay lazy: a LIMIT met before the bad row never evaluates it."""
    functions = _numbers_registry([(1,), ("two",), (3,)])
    plan = LimitNode(FilterNode(_numbers_over(), ">", ColExpr("n"), ConstExpr(0)), 1)
    compiled, walked = _both(plan, functions)
    assert compiled == walked == [(1,)]


def test_wrong_width_function_row_is_the_same_plan_error() -> None:
    functions = _numbers_registry([(1,), (2, 3)])
    compiled, walked = _both(_numbers_over(), functions)
    assert compiled == walked
    assert compiled[0] is PlanError and "width" in compiled[1]


def test_param_outside_a_plan_function_is_the_same_plan_error() -> None:
    compiled, walked = _both(ParamNode(schema=("x",)), FunctionRegistry())
    assert compiled == walked
    assert compiled[0] is PlanError and "param node" in compiled[1]


# -- compiled once, resolved per execution ----------------------------------------


def test_a_compiled_chain_reaches_a_replaced_function() -> None:
    functions = _numbers_registry([(1,)])
    chain = compile_plan(_numbers_over())
    kernel = SimKernel()
    ctx = ExecutionContext(kernel=kernel, broker=None, functions=functions)
    assert kernel.run(chain.rows(ctx)) == [(1,)]
    functions.replace(
        helping_function("numbers", [], TupleType((("n", INTEGER),)), lambda: [(7,), (8,)])
    )
    assert kernel.run(chain.rows(ctx)) == [(7,), (8,)]


def test_one_shot_wsdl_reimport_reaches_the_new_owf() -> None:
    system = WSMED(profile="fast")
    system.import_all()
    options = QueryOptions(mode="parallel", fanouts=[5, 4])
    first = system.sql(QUERY1_SQL, options=options)
    uri = system.functions.resolve("GetPlaceList").implementation.document.uri
    system.import_wsdl(uri)
    fresh = system.functions.resolve("GetPlaceList").implementation
    calls = []
    original = fresh.call

    async def counted(ctx, arguments):
        calls.append(arguments)
        return await original(ctx, arguments)

    fresh.call = counted
    second = system.sql(QUERY1_SQL, options=options)
    assert Counter(second.rows) == Counter(first.rows)
    assert len(calls) == 260  # every GetPlaceList call went to the re-imported OWF
