"""Row expressions evaluated by plan operators.

Expressions are compiled against a node's input schema into positional
accessors once per plan execution, then applied per row.  They are frozen
dataclasses, so the plan functions containing them compare, print and
pickle structurally when they are *shipped* to child query processes
(Sec. III.A's code shipping).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Union

from repro.calculus.expressions import ArgExpr, Concat, Const, Var
from repro.fdb.values import value_repr
from repro.util.errors import PlanError


@dataclass(frozen=True)
class ConstExpr:
    value: Any

    def __str__(self) -> str:
        return value_repr(self.value)


@dataclass(frozen=True)
class ColExpr:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ConcatExpr:
    parts: tuple["RowExpr", ...]

    def __str__(self) -> str:
        return "concat(" + ", ".join(str(p) for p in self.parts) + ")"


RowExpr = Union[ConstExpr, ColExpr, ConcatExpr]


def expr_from_calculus(expression: ArgExpr) -> RowExpr:
    """Convert a calculus argument expression to a row expression."""
    if isinstance(expression, Const):
        return ConstExpr(expression.value)
    if isinstance(expression, Var):
        return ColExpr(expression.name)
    if isinstance(expression, Concat):
        return ConcatExpr(tuple(expr_from_calculus(p) for p in expression.parts))
    raise PlanError(f"cannot convert calculus expression {expression!r}")


def columns_of(expression: RowExpr) -> set[str]:
    if isinstance(expression, ColExpr):
        return {expression.name}
    if isinstance(expression, ConcatExpr):
        found: set[str] = set()
        for part in expression.parts:
            found |= columns_of(part)
        return found
    return set()


def compile_expr(
    expression: RowExpr, schema: tuple[str, ...]
) -> Callable[[tuple], Any]:
    """Compile ``expression`` into a positional row accessor for ``schema``."""
    if isinstance(expression, ConstExpr):
        value = expression.value
        return lambda row: value
    if isinstance(expression, ColExpr):
        try:
            position = schema.index(expression.name)
        except ValueError:
            raise PlanError(
                f"expression references {expression.name!r} which is not in "
                f"the input schema {schema}"
            ) from None
        return itemgetter(position)
    if isinstance(expression, ConcatExpr):
        compiled = [compile_expr(part, schema) for part in expression.parts]
        return lambda row: "".join(_as_text(fn(row)) for fn in compiled)
    raise PlanError(f"unknown expression type {expression!r}")


def _as_text(value: Any) -> str:
    if isinstance(value, str):
        return value
    return value_repr(value)


def render_expr(expression: RowExpr) -> str:
    return str(expression)

