"""One renderer: every text or trace JSON made from a query result, a
stats snapshot, a span store or a plan is a function of ``repro.render``.

The data classes keep data and analysis, and no other module under
``src/repro`` defines a ``render*``/``format*`` function, except the
definition renderers named in ``ALLOWED`` — they show what was imported or
generated (a WSDL, a view, an OWF, an expression inside a plan label), not
what a query did.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

from repro.engine.engine import EngineStats
from repro.obs.critical_path import CriticalPathReport
from repro.wsmed.results import QueryResult

SRC = Path(__file__).resolve().parents[1] / "src"

#: (module, qualified name) -> why it renders outside ``repro.render``.
ALLOWED = {
    ("repro.wsmed.views", "render_view"): "a generated view's definition (\\views)",
    ("repro.wsmed.owf", "OperationWrapper.render_source"): "a generated OWF's source (\\owf)",
    ("repro.services.wsdl", "render_wsdl"): "an imported WSDL document",
    ("repro.services.wsdl", "_render_element"): "one element of a WSDL document",
    ("repro.algebra.expressions", "render_expr"): "an expression inside a plan node's label",
    ("repro.algebra.optimizer", "_CostBuilder._render_shape"): (
        "builds the join shape OptimizerReport keeps as data while planning"
    ),
}

#: Names a rendering method went by before it moved to repro.render.
RENDERING_NAMES = {
    "render",
    "report",
    "summary",
    "share_report",
    "process_tree",
    "utilization",
    "chrome_trace",
    "write_trace",
    "describe",
}


def _definitions() -> dict[tuple[str, str], int]:
    """(module, qualified name) -> line of every function under src/repro."""
    found: dict[tuple[str, str], int] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)

        def visit(node: ast.AST, scope: list[str]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    found[(module, ".".join([*scope, child.name]))] = child.lineno
                    visit(child, [*scope, child.name])
                elif isinstance(child, ast.ClassDef):
                    visit(child, [*scope, child.name])

        visit(ast.parse(path.read_text(encoding="utf-8")), [])
    return found


def test_no_render_or_format_function_outside_the_renderer() -> None:
    definitions = _definitions()
    strays = sorted(
        f"{module}:{name} (line {line})"
        for (module, name), line in definitions.items()
        if module != "repro.render"
        and name.rsplit(".", 1)[-1].lstrip("_").startswith(("render", "format"))
        and (module, name) not in ALLOWED
    )
    assert not strays, f"rendering outside repro.render: {strays}"
    gone = sorted(f"{module}:{name}" for module, name in ALLOWED if (module, name) not in definitions)
    assert not gone, f"allow-list names functions that no longer exist: {gone}"


@pytest.mark.parametrize("cls", [QueryResult, EngineStats, CriticalPathReport])
def test_data_classes_have_no_text_method(cls) -> None:
    texts = sorted(
        name
        for klass in cls.__mro__[:-1]
        for name, member in vars(klass).items()
        if callable(member)
        and not name.startswith("__")
        and (
            name in RENDERING_NAMES
            or getattr(member, "__annotations__", {}).get("return") in ("str", str)
        )
    )
    assert not texts, f"{cls.__name__} renders text: {texts}"


@pytest.mark.parametrize(
    "module", ["repro.parallel.visualize", "repro.algebra.explain", "repro.obs.export"]
)
def test_the_old_rendering_modules_are_gone(module) -> None:
    assert importlib.util.find_spec(module) is None
