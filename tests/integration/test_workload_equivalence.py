"""Property-based equivalence for the workload-diversity constructs.

Every new dialect construct — joins over chains, GROUP BY aggregates,
OR disjunction, LIMIT — must return exactly the rows a
naive in-memory evaluation of the generated world's tables produces,
under every execution mode, on both kernels, with caching, cross-query
sharing and fault injection toggled on and off.  Hypothesis drives the
world shapes (:class:`benchmarks.worlds.WorldSpec`); the reference
answers are the ``reference_*`` methods computed straight from the
in-memory tables, never through the query engine.
"""

from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from benchmarks.worlds import WorldSpec, build_world
from repro import (
    AsyncioKernel,
    CacheConfig,
    QueryEngine,
    QueryOptions,
)

_SETTINGS = dict(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

world_specs = st.builds(
    WorldSpec,
    seed=st.integers(min_value=0, max_value=999),
    chains=st.just(2),
    depth=st.integers(min_value=1, max_value=2),
    roots=st.integers(min_value=2, max_value=4),
    fanout=st.integers(min_value=1, max_value=3),
    tags=st.integers(min_value=2, max_value=4),
)


def _bag(rows) -> Counter:
    return Counter(tuple(row) for row in rows)


def _options(mode: str, depth: int, **extra) -> QueryOptions:
    if mode == "parallel":
        extra.setdefault("fanouts", [2] * depth)
    return QueryOptions(mode=mode, **extra)


@given(spec=world_specs, mode=st.sampled_from(["central", "parallel", "adaptive"]))
@settings(**_SETTINGS)
def test_chain_matches_reference(spec, mode) -> None:
    world = build_world(spec)
    result = world.build().sql(
        world.chain_sql(0), options=_options(mode, spec.depth)
    )
    assert _bag(result.rows) == _bag(world.reference_chain(0))


@given(spec=world_specs, mode=st.sampled_from(["central", "parallel", "adaptive"]))
@settings(**_SETTINGS)
def test_limit_is_a_prefix_of_the_reference_bag(spec, mode) -> None:
    world = build_world(spec)
    limit = 3
    result = world.build().sql(
        world.chain_sql(0, limit=limit), options=_options(mode, spec.depth)
    )
    reference = _bag(world.reference_chain(0))
    assert len(result.rows) == min(limit, sum(reference.values()))
    assert not _bag(result.rows) - reference  # multiset containment


@given(spec=world_specs)
@settings(**_SETTINGS)
def test_join_matches_reference(spec) -> None:
    world = build_world(spec)
    result = world.build().sql(world.join_sql(0, 1))
    assert _bag(result.rows) == _bag(world.reference_join(0, 1))


@given(spec=world_specs, mode=st.sampled_from(["central", "adaptive"]))
@settings(**_SETTINGS)
def test_aggregate_matches_reference(spec, mode) -> None:
    world = build_world(spec)
    result = world.build().sql(
        world.aggregate_sql(0), options=_options(mode, spec.depth)
    )
    assert _bag(result.rows) == _bag(world.reference_aggregate(0))


@given(spec=world_specs)
@settings(**_SETTINGS)
def test_disjunction_matches_reference(spec) -> None:
    world = build_world(spec)
    result = world.build().sql(world.or_sql(0))
    assert _bag(result.rows) == _bag(world.reference_or(0))


@given(
    spec=world_specs,
    cache=st.booleans(),
    construct=st.sampled_from(["chain", "aggregate", "or"]),
)
@settings(**_SETTINGS)
def test_cache_and_faults_do_not_change_rows(spec, cache, construct) -> None:
    flaky = WorldSpec(
        **{
            **{f: getattr(spec, f) for f in spec.__dataclass_fields__},
            "flaky_ops": 1,
            "flaky_tries": 1,
        }
    )
    world = build_world(flaky)
    sql = {
        "chain": world.chain_sql(0),
        "aggregate": world.aggregate_sql(0),
        "or": world.or_sql(0),
    }[construct]
    reference = {
        "chain": world.reference_chain(0),
        "aggregate": world.reference_aggregate(0),
        "or": world.reference_or(0),
    }[construct]
    options = QueryOptions(
        retries=1, cache=CacheConfig(enabled=True) if cache else None
    )
    result = world.build().sql(sql, options=options)
    assert _bag(result.rows) == _bag(reference)


@given(spec=world_specs, construct=st.sampled_from(["chain", "aggregate", "or"]))
@settings(max_examples=5, deadline=None)
def test_asyncio_kernel_matches_reference(spec, construct) -> None:
    quick = WorldSpec(
        **{
            **{f: getattr(spec, f) for f in spec.__dataclass_fields__},
            "base_service_time": 0.001,
        }
    )
    world = build_world(quick)
    sql = {
        "chain": world.chain_sql(0),
        "aggregate": world.aggregate_sql(0),
        "or": world.or_sql(0),
    }[construct]
    reference = {
        "chain": world.reference_chain(0),
        "aggregate": world.reference_aggregate(0),
        "or": world.reference_or(0),
    }[construct]
    result = world.build().sql(sql, options=QueryOptions(kernel=AsyncioKernel()))
    assert _bag(result.rows) == _bag(reference)


@given(spec=world_specs, share=st.booleans())
@settings(max_examples=6, deadline=None)
def test_sharing_engine_matches_reference(spec, share) -> None:
    world = build_world(spec)
    engine = QueryEngine(world.build(), share=share)
    try:
        chain = engine.sql(world.chain_sql(0))
        aggregate = engine.sql(world.aggregate_sql(0))
        disjunct = engine.sql(world.or_sql(0))
    finally:
        engine.close()
    assert _bag(chain.rows) == _bag(world.reference_chain(0))
    assert _bag(aggregate.rows) == _bag(world.reference_aggregate(0))
    assert _bag(disjunct.rows) == _bag(world.reference_or(0))
