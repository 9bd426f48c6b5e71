"""One run body per query: ``WSMED.run_plan`` installs the pool acquirer,
iterates the compiled pull chain itself and tears the pools down, for a
one-shot query and an engine query alike.

No executor class relays the chain's chunks, the resident engine
acquires a coordinator pool through one ``PoolRegistry`` method, and an
engine query is one :class:`~repro.wsmed.results.QueryStream` — the
engine's body iterates ``run_plan`` with its own stream rather than
wrapping a second one.
"""

from pathlib import Path

from repro import QUERY1_SQL
from repro.engine.pools import PoolRegistry
from repro.wsmed.results import QueryStream

from tests.engine.test_engine import PARALLEL, fresh_engine, fresh_wsmed

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def test_no_parallel_executor_exists_under_repro() -> None:
    named = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if "ParallelExecutor" in path.read_text()
    ]
    assert named == []
    assert not (SRC / "parallel" / "executor.py").exists()


def test_the_pool_registry_has_one_acquisition_method() -> None:
    for gone in ("lease", "lease_or_wait", "register"):
        assert not hasattr(PoolRegistry, gone), gone
    assert callable(PoolRegistry.acquire)


def _count_streams(monkeypatch) -> list:
    built = []
    init = QueryStream.__init__

    def counting(self, body, *args):
        built.append(body)
        init(self, body, *args)

    monkeypatch.setattr(QueryStream, "__init__", counting)
    return built


def test_an_engine_query_is_one_query_stream(monkeypatch) -> None:
    engine = fresh_engine()
    try:
        built = _count_streams(monkeypatch)
        cold = engine.sql(QUERY1_SQL, options=PARALLEL)
        assert len(built) == 1
        warm = engine.sql(QUERY1_SQL, options=PARALLEL)
        assert len(built) == 2
    finally:
        engine.close()
    assert len(cold.rows) == len(warm.rows) == 360


def test_a_one_shot_query_is_one_query_stream(monkeypatch) -> None:
    wsmed = fresh_wsmed()
    built = _count_streams(monkeypatch)
    result = wsmed.sql(QUERY1_SQL, options=PARALLEL)
    assert built == [wsmed.run_plan]
    assert len(result.rows) == 360
