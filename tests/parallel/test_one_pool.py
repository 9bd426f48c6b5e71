"""One pool class: ``ChildPool`` owns dispatch, batching and every slot
structure, and is itself the ``FF_APPLYP`` pool.

The adaptive pool is its only subclass and adds monitoring by extending
the per-row and per-call steps, so a plain FF pool makes no hook call per
result row or per end-of-call.
"""

import ast
import importlib.util
from pathlib import Path

from repro.parallel import ff_applyp
from repro.parallel.aff_applyp import AFFPool
from repro.parallel.ff_applyp import ChildPool

SRC = Path(__file__).resolve().parents[2] / "src"


def _subclasses_under_src(root: str) -> set[str]:
    """Names of the classes under src/repro that derive from ``root``,
    directly or through another class found there."""
    bases: dict[str, set[str]] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {
                    base.id if isinstance(base, ast.Name) else ast.unparse(base)
                    for base in node.bases
                }
    found: set[str] = set()
    frontier = {root}
    while frontier:
        frontier = {
            name for name, parents in bases.items() if parents & frontier
        } - found
        found |= frontier
    return found


def test_no_batch_controller_module() -> None:
    assert importlib.util.find_spec("repro.parallel.batching") is None


def test_the_adaptive_pool_is_the_only_subclass() -> None:
    assert _subclasses_under_src("ChildPool") == {"AFFPool"}
    assert not hasattr(ff_applyp, "FFPool")


def test_no_per_row_or_per_end_of_call_hook() -> None:
    for pool_class in (ChildPool, AFFPool):
        assert not hasattr(pool_class, "on_result")
        assert not hasattr(pool_class, "on_end_of_call")
