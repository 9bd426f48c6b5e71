"""Tests for the ``hash_affinity`` dispatch policy and cost validation."""

import pytest

from repro.fdb.values import Bag
from repro.parallel.costs import ProcessCosts
from repro.util.errors import PlanError

from tests.helpers import QUERY1_SQL, QUERY2_SQL, make_world
from tests.parallel.helpers_parallel import run_parallel
from tests.parallel.test_batching import drive, make_pool


@pytest.fixture(scope="module")
def world():
    return make_world()


def affinity_costs(**kwargs):
    return ProcessCosts(dispatch="hash_affinity", **kwargs).scaled(0.01)


def test_hash_affinity_is_a_valid_policy() -> None:
    assert ProcessCosts(dispatch="hash_affinity").dispatch == "hash_affinity"
    with pytest.raises(PlanError, match="dispatch"):
        ProcessCosts(dispatch="sticky")


def test_scaled_rejects_negative_factor() -> None:
    with pytest.raises(PlanError, match="non-negative"):
        ProcessCosts().scaled(-1.0)


def test_scaled_preserves_dispatch_policy() -> None:
    assert affinity_costs().dispatch == "hash_affinity"


def test_hash_affinity_preserves_results(world) -> None:
    central, _, _ = world.run_central(QUERY1_SQL)
    rows, _, _, _ = run_parallel(
        world, QUERY1_SQL, fanouts=[4, 3], costs=affinity_costs()
    )
    assert Bag(rows) == Bag(central)


def test_hash_affinity_with_prefetch_preserves_results(world) -> None:
    central, _, central_broker = world.run_central(QUERY2_SQL)
    rows, _, broker, _ = run_parallel(
        world, QUERY2_SQL, fanouts=[3, 6], costs=affinity_costs(prefetch=3)
    )
    assert Bag(rows) == Bag(central)
    # Routing changes placement, never the number of web-service calls.
    assert broker.total_calls() == central_broker.total_calls()


def test_hash_affinity_makes_no_extra_calls(world) -> None:
    _, _, ff_broker, _ = run_parallel(world, QUERY1_SQL, fanouts=[4, 3])
    _, _, affinity_broker, affinity_ctx = run_parallel(
        world, QUERY1_SQL, fanouts=[4, 3], costs=affinity_costs()
    )
    assert affinity_broker.total_calls() == ff_broker.total_calls()
    spans = affinity_ctx.run.obs.store
    assert len(spans.find("process_exit")) == len(spans.find("spawn"))


def test_saturated_affinity_target_neither_drops_nor_duplicates() -> None:
    """A hot key saturates its affinity target under ``prefetch > 1``.

    Tuples for the hot key overflow onto other children (first-finished
    fallback) and later end-of-calls pull from the pending queue via
    ``_take_pending`` — every input tuple must come back exactly once,
    neither dropped nor double-dispatched.
    """
    from repro.runtime.simulated import SimKernel

    kernel = SimKernel()
    pool, _ = make_pool(
        kernel, ProcessCosts(dispatch="hash_affinity", prefetch=3).scaled(0.001),
        fanout=3,
    )
    hot = [(7,)] * 18  # all hash to the same child; capacity is only 3
    cold = [(i,) for i in range(5)]
    out = drive(kernel, pool, hot + cold)
    assert sorted(out) == sorted([(7, 7)] * 18 + [(i, i) for i in range(5)])


def test_round_robin_still_preserves_results(world) -> None:
    # The round-robin branch was refactored onto the shared dispatch
    # helper; its observable behavior must be unchanged.
    central, _, _ = world.run_central(QUERY1_SQL)
    rows, _, _, _ = run_parallel(
        world,
        QUERY1_SQL,
        fanouts=[4, 3],
        costs=ProcessCosts(dispatch="round_robin").scaled(0.01),
    )
    assert Bag(rows) == Bag(central)
