"""Function registry of the functional DBMS.

Everything callable from a query lives here: generated operation wrapper
functions (OWFs), helping functions such as the paper's ``getzipcode``, and
built-ins such as ``concat``.  Each function carries a typed signature with
a *binding pattern*: which parameters must be bound (``-``, inputs) and
which are produced (``+``, outputs) — the information the planner uses to
order dependent calls (Sec. II).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable

from repro.fdb.types import AtomicType, TupleType
from repro.util.errors import ReproError


class FunctionError(ReproError):
    """Raised on registry misuse: duplicate names, unknown lookups, and
    changes to a frozen registry."""


#: Why a frozen registry refuses a change, and what to do instead.
_FROZEN = "a QueryEngine runs on this catalogue; build a new WSMED and engine"


@dataclass(frozen=True)
class AccessPath:
    """Declares two functions as access paths over one logical relation.

    ``function`` and ``alternative`` enumerate the same set of logical
    rows, but with different binding patterns — e.g. a lookup-by-id view
    and its inverse lookup-by-name view over one directory relation (the
    *path views* of Romero et al., "Equivalent Rewritings on Path Views
    with Binding Patterns").  ``mapping`` renames the canonical
    function's columns (inputs and outputs alike) to the alternative's
    columns; columns missing from the mapping cannot be recovered
    through this path.

    The optimizer's rewrite phase uses declared access paths to replace
    a call whose binding pattern the query cannot satisfy (a
    :class:`~repro.util.errors.BindingError` under the heuristic
    planner) with an equivalent call that the bound variables *can*
    drive.
    """

    function: str
    alternative: str
    mapping: tuple[tuple[str, str], ...]  # (function column, alternative column)

    def __str__(self) -> str:
        renames = ", ".join(f"{a}->{b}" for a, b in self.mapping)
        return f"{self.function} == {self.alternative} ({renames})"


class FunctionKind(enum.Enum):
    """How a function is evaluated."""

    BUILTIN = "builtin"  # pure Python, zero cost in the cost model
    HELPING = "helping"  # user-defined local function, e.g. getzipcode
    OWF = "owf"  # wraps a web-service operation: expensive, remote


@dataclass(frozen=True)
class Parameter:
    """One input parameter: a name and its atomic type."""

    name: str
    type: AtomicType

    def __str__(self) -> str:
        return f"{self.type} {self.name}"


@dataclass
class FunctionDef:
    """A registered function.

    ``implementation`` semantics by kind:

    * BUILTIN / HELPING — a plain callable ``(*args) -> value`` or, when
      ``returns_stream``, ``(*args) -> iterable of rows``.
    * OWF — an :class:`~repro.wsmed.owf.OperationWrapper`; the plan
      interpreter invokes it through the service broker.
    """

    name: str
    kind: FunctionKind
    parameters: tuple[Parameter, ...]
    result: TupleType
    implementation: Any
    returns_stream: bool = True
    documentation: str = ""

    def signature(self) -> str:
        """Signature with binding-pattern annotations, paper style."""
        inputs = ", ".join(f"{p.name}-" for p in self.parameters)
        outputs = ", ".join(f"{name}+" for name in self.result.column_names())
        return f"{self.name}({inputs}{', ' if inputs and outputs else ''}{outputs})"

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.parameters)
        return f"{self.name}({params}) -> Bag of {self.result}"


class FunctionRegistry:
    """Name -> :class:`FunctionDef` map with case-insensitive lookup.

    SQL identifiers are case-insensitive, so the registry resolves
    ``getallstates`` and ``GetAllStates`` to the same function while
    preserving the declared spelling for display.

    A :class:`~repro.engine.QueryEngine` freezes the registry it runs on:
    its cached plans, warm trees and memoized results hold the definitions
    as they were, so from then on only new names register.
    """

    def __init__(self) -> None:
        self._functions: dict[str, FunctionDef] = {}
        # Lower-cased function name -> access paths usable to replace a
        # call of that function (see declare_access_path).
        self._access_paths: dict[str, list[AccessPath]] = {}
        self._version = 0
        self._frozen = False

    @property
    def version(self) -> int:
        """Moves on every ``register``/``replace`` (a mutation counter)."""
        return self._version

    def register(self, function: FunctionDef) -> None:
        key = function.name.lower()
        if key in self._functions:
            raise FunctionError(f"function {function.name!r} is already registered")
        self._functions[key] = function
        self._version += 1

    def replace(self, function: FunctionDef) -> None:
        """Register, overwriting any previous definition (re-import of a WSDL)."""
        self.check_replaceable(function.name)
        self._functions[function.name.lower()] = function
        self._version += 1

    def freeze(self) -> None:
        """Refuse, from now on, to change a registered definition or to
        declare an access path; a new name still registers."""
        self._frozen = True

    def check_replaceable(self, name: str) -> None:
        """Raise :class:`FunctionError` if replacing ``name`` is refused."""
        if self._frozen and name.lower() in self._functions:
            raise FunctionError(f"cannot replace {name!r}: {_FROZEN}")

    def resolve(self, name: str) -> FunctionDef:
        try:
            return self._functions[name.lower()]
        except KeyError:
            known = ", ".join(sorted(f.name for f in self._functions.values()))
            raise FunctionError(
                f"unknown function {name!r}; registered: {known or '<none>'}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._functions

    # -- access-path equivalences ------------------------------------------------

    @staticmethod
    def _columns_of(function: FunctionDef) -> dict[str, str]:
        """Lower-cased column name -> declared spelling, inputs + outputs."""
        columns = {p.name.lower(): p.name for p in function.parameters}
        for name in function.result.column_names():
            columns.setdefault(name.lower(), name)
        return columns

    def declare_access_path(
        self, function: str, alternative: str, mapping: dict[str, str]
    ) -> None:
        """Declare ``alternative`` as an equivalent access path of ``function``.

        ``mapping`` renames columns of ``function`` (inputs or outputs)
        to columns of ``alternative``.  The declaration is symmetric:
        the inverse mapping is registered automatically, so either
        function can be rewritten into the other.  Every *input*
        parameter of a target function must be reachable through the
        mapping, otherwise the rewrite could never construct a call.
        """
        if self._frozen:
            raise FunctionError(
                f"cannot declare an access path of {function!r}: {_FROZEN}"
            )
        f = self.resolve(function)
        g = self.resolve(alternative)
        if f.name.lower() == g.name.lower():
            raise FunctionError(
                f"cannot declare {f.name!r} as an access path of itself"
            )
        f_columns = self._columns_of(f)
        g_columns = self._columns_of(g)
        normalized: list[tuple[str, str]] = []
        for f_col, g_col in mapping.items():
            if f_col.lower() not in f_columns:
                raise FunctionError(
                    f"access path mapping names {f_col!r}, which is not a "
                    f"column of {f.name!r}"
                )
            if g_col.lower() not in g_columns:
                raise FunctionError(
                    f"access path mapping names {g_col!r}, which is not a "
                    f"column of {g.name!r}"
                )
            normalized.append(
                (f_columns[f_col.lower()], g_columns[g_col.lower()])
            )
        if len({a.lower() for a, _ in normalized}) != len(normalized) or len(
            {b.lower() for _, b in normalized}
        ) != len(normalized):
            raise FunctionError(
                f"access path mapping between {f.name!r} and {g.name!r} "
                "must be one-to-one"
            )
        for target, columns, side in (
            (g, {b.lower() for _, b in normalized}, "values"),
            (f, {a.lower() for a, _ in normalized}, "keys"),
        ):
            unmapped = [
                p.name for p in target.parameters if p.name.lower() not in columns
            ]
            if unmapped:
                raise FunctionError(
                    f"access path mapping {side} must cover every input of "
                    f"{target.name!r}; missing: {unmapped}"
                )
        forward = AccessPath(f.name, g.name, tuple(sorted(normalized)))
        backward = AccessPath(
            g.name, f.name, tuple(sorted((b, a) for a, b in normalized))
        )
        self._access_paths.setdefault(f.name.lower(), []).append(forward)
        self._access_paths.setdefault(g.name.lower(), []).append(backward)

    def access_paths(self, name: str) -> list[AccessPath]:
        """Declared alternatives for calls of ``name`` (may be empty)."""
        return list(self._access_paths.get(name.lower(), []))

    def owfs(self) -> list[FunctionDef]:
        return [f for f in self._functions.values() if f.kind is FunctionKind.OWF]

    def all(self) -> list[FunctionDef]:
        return list(self._functions.values())


def helping_function(
    name: str,
    parameters: list[tuple[str, AtomicType]],
    result: TupleType,
    implementation: Callable[..., Any],
    documentation: str = "",
) -> FunctionDef:
    """Convenience constructor for user-defined helping functions."""
    return FunctionDef(
        name=name,
        kind=FunctionKind.HELPING,
        parameters=tuple(Parameter(n, t) for n, t in parameters),
        result=result,
        implementation=implementation,
        documentation=documentation,
    )
