"""Access-path rewriting of unfittable binding patterns.

When a query binds the *outputs* of a web-service view but not its
*inputs* — ``SELECT ... FROM lookup_by_id b WHERE b.name = 'Smith'`` over
``lookup_by_id(id-) -> (name+)`` — the heuristic pipeline rejects it with
a :class:`~repro.util.errors.BindingError`: the limited access pattern
cannot be satisfied.  Yet if the registry declares an *access path*
equivalence (:meth:`FunctionRegistry.declare_access_path`) to an inverse
view ``lookup_by_name(name-) -> (id+)`` over the same logical relation,
the query is answerable: call the alternative with the bound columns as
inputs and read the formerly-unbound columns off its outputs.  This is
the path-view rewrite of Romero et al., *Equivalent Rewritings on Path
Views with Binding Patterns*, specialized to the registry's declared
one-to-one column renamings.

The rewriter operates on a calculus produced with ``allow_unbound=True``
(so unbound input placeholders survive generation) and repeatedly
replaces a predicate that references unbound variables with an
equivalent call of a declared alternative:

* an alternative input mapped from a *bound input* of the original call
  reuses that input's argument expression;
* an alternative input mapped from an *output* of the original call
  consumes an equality filter ``var = expr`` binding that output (the
  equality also licenses substituting ``expr`` for ``var`` everywhere
  else in the query);
* an alternative output mapped from an unbound input *produces* the
  placeholder variable, turning it into an ordinary dependent-join
  binding for downstream predicates;
* an alternative output shadowing a bound input of the original call
  re-asserts the binding as an equality filter, preserving the original
  call's restriction.

Rewrites iterate to a fixpoint; if unbound variables remain, the
rewriter raises ``BindingError`` listing every access path it tried and
why each failed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.calculus.expressions import (
    ArgExpr,
    CalculusQuery,
    Concat,
    FilterPredicate,
    FunctionPredicate,
    HeadItem,
    Predicate,
    Var,
    variables_of,
)
from repro.fdb.functions import AccessPath, FunctionDef, FunctionRegistry
from repro.util.errors import BindingError


@dataclass(frozen=True)
class AppliedRewrite:
    """Record of one access-path rewrite, for explain output."""

    alias: str
    original: str  # function the query named
    replacement: str  # access-path alternative actually planned
    reason: str  # why the original call was unfittable
    bound_from: tuple[str, ...]  # how each alternative input got bound
    produced: tuple[str, ...]  # formerly-unbound variables now produced


class _PathFailure(Exception):
    """One candidate access path cannot repair the call (with reason)."""


def rewrite_unfittable(
    calculus: CalculusQuery, registry: FunctionRegistry
) -> tuple[CalculusQuery, list[AppliedRewrite]]:
    """Repair a calculus with unbound inputs via declared access paths.

    Returns the (possibly unchanged) calculus and the list of applied
    rewrites.  Raises ``BindingError`` when unbound variables remain
    after no more rewrites apply.
    """
    if not calculus.unbound:
        return calculus, []
    rewrites: list[AppliedRewrite] = []
    attempts: list[str] = []
    current = calculus
    while current.unbound:
        current, applied, failures = _rewrite_once(current, registry)
        attempts.extend(failures)
        if applied is None:
            missing = ", ".join(current.unbound)
            detail = ""
            if attempts:
                detail = "; access paths tried: " + " | ".join(attempts)
            raise BindingError(
                f"input parameters are not bound and no declared access "
                f"path can bind them: {missing}{detail}"
            )
        rewrites.append(applied)
    return current, rewrites


def _rewrite_once(
    calculus: CalculusQuery, registry: FunctionRegistry
) -> tuple[CalculusQuery, AppliedRewrite | None, list[str]]:
    """Try to repair one predicate; returns (calculus, applied, failures)."""
    failures: list[str] = []
    unbound = set(calculus.unbound)
    for index, predicate in enumerate(calculus.predicates):
        if not isinstance(predicate, FunctionPredicate):
            continue
        function = registry.resolve(predicate.function)
        owned = _owned_unbound(predicate, function, unbound)
        if not owned:
            continue
        paths = registry.access_paths(predicate.function)
        if not paths:
            failures.append(
                f"{predicate.alias} ({predicate.function}): no access paths "
                "declared"
            )
            continue
        for path in paths:
            try:
                rewritten, applied = _apply_path(
                    calculus, index, predicate, function, path, registry, owned
                )
            except _PathFailure as failure:
                failures.append(
                    f"{predicate.alias} ({predicate.function} via "
                    f"{path.alternative}): {failure}"
                )
                continue
            return rewritten, applied, failures
    return calculus, None, failures


def _owned_unbound(
    predicate: FunctionPredicate, function: FunctionDef, unbound: set[str]
) -> list[str]:
    """Unbound placeholder names belonging to this predicate's inputs."""
    owned = []
    for parameter in function.parameters:
        name = f"{predicate.alias}_{parameter.name}"
        if name in unbound:
            owned.append(name)
    return owned


def _apply_path(
    calculus: CalculusQuery,
    index: int,
    predicate: FunctionPredicate,
    function: FunctionDef,
    path: AccessPath,
    registry: FunctionRegistry,
    owned: list[str],
) -> tuple[CalculusQuery, AppliedRewrite]:
    alternative = registry.resolve(path.alternative)
    unbound = set(calculus.unbound)

    # Column books for the original function: lower-cased name ->
    # ("input", arg expr) or ("output", output var).
    columns: dict[str, tuple[str, ArgExpr]] = {}
    for parameter, argument in zip(function.parameters, predicate.arguments):
        columns[parameter.name.lower()] = ("input", argument)
    for name, output in zip(function.result.column_names(), predicate.outputs):
        columns[name.lower()] = ("output", output)
    # Inverse mapping: alternative column (lower) -> original column (lower).
    to_original = {g.lower(): f.lower() for f, g in path.mapping}

    forbidden = {v.name for v in predicate.outputs} | unbound
    filters = [
        (i, p)
        for i, p in enumerate(calculus.predicates)
        if isinstance(p, FilterPredicate)
    ]
    consumed: set[int] = set()
    substitutions: dict[str, ArgExpr] = {}
    bound_from: list[str] = []
    arguments: list[ArgExpr] = []

    for parameter in alternative.parameters:
        source = to_original.get(parameter.name.lower())
        if source is None:
            raise _PathFailure(
                f"alternative input {parameter.name!r} has no mapped column"
            )
        kind, expression = columns[source]
        if kind == "input":
            if _references(expression, unbound):
                raise _PathFailure(
                    f"alternative input {parameter.name!r} maps to input "
                    f"{source!r}, which is itself unbound"
                )
            arguments.append(expression)
            bound_from.append(
                f"{parameter.name} <- {expression} (bound input {source})"
            )
            continue
        # Mapped from an output: an equality filter must pin it down.
        target = expression
        assert isinstance(target, Var)
        binding = _find_binding_filter(
            filters, consumed, target, forbidden
        )
        if binding is None:
            raise _PathFailure(
                f"alternative input {parameter.name!r} maps to output "
                f"{target.name!r}, but no equality filter binds it"
            )
        filter_index, bound_expr = binding
        consumed.add(filter_index)
        substitutions[target.name] = bound_expr
        arguments.append(bound_expr)
        bound_from.append(
            f"{parameter.name} <- {bound_expr} (consumed filter "
            f"{target.name} = {bound_expr})"
        )

    # Outputs of the replacement call, positional with the alternative's
    # result columns; extra equality filters re-assert restrictions that
    # used to be enforced by the original call's bound inputs.
    outputs: list[Var] = []
    extra_filters: list[FilterPredicate] = []
    produced: list[str] = []
    taken = _all_variable_names(calculus)
    for name in alternative.result.column_names():
        source = to_original.get(name.lower())
        if source is None:
            outputs.append(_fresh_var(predicate.alias, name, taken))
            continue
        kind, expression = columns[source]
        if kind == "output":
            assert isinstance(expression, Var)
            if expression.name in substitutions:
                # Its value is already pinned by the consumed filter; give
                # the column a fresh name so the pin stays authoritative.
                outputs.append(_fresh_var(predicate.alias, name, taken))
                continue
            outputs.append(expression)
            continue
        # Source is an input of the original call.
        if _references(expression, unbound):
            # The formerly-unbound placeholder: the alternative produces it.
            assert isinstance(expression, Var)
            outputs.append(expression)
            produced.append(expression.name)
            continue
        # A bound input surfaced as an output: keep the restriction.
        variable = _fresh_var(predicate.alias, name, taken)
        outputs.append(variable)
        extra_filters.append(FilterPredicate("=", variable, expression))

    replacement = FunctionPredicate(
        function=alternative.name,
        alias=predicate.alias,
        arguments=tuple(arguments),
        outputs=tuple(outputs),
    )

    predicates: list[Predicate] = []
    for i, p in enumerate(calculus.predicates):
        if i == index:
            predicates.append(replacement)
            predicates.extend(extra_filters)
        elif i in consumed:
            continue
        else:
            predicates.append(_substitute_predicate(p, substitutions))
    head = tuple(
        HeadItem(item.name, _substitute_expr(item.expression, substitutions))
        for item in calculus.head
    )
    remaining = _remaining_unbound(unbound, predicates, head)
    rewritten = replace(
        calculus,
        predicates=tuple(predicates),
        head=head,
        unbound=tuple(n for n in calculus.unbound if n in remaining),
    )
    applied = AppliedRewrite(
        alias=predicate.alias,
        original=function.name,
        replacement=alternative.name,
        reason=(
            f"binding pattern {function.signature()} cannot be satisfied "
            f"(unbound: {', '.join(owned)})"
        ),
        bound_from=tuple(bound_from),
        produced=tuple(produced),
    )
    return rewritten, applied


def _find_binding_filter(
    filters: list[tuple[int, FilterPredicate]],
    consumed: set[int],
    target: Var,
    forbidden: set[str],
) -> tuple[int, ArgExpr] | None:
    """An unconsumed ``target = expr`` filter with ``expr`` computable
    before the rewritten call runs (no forbidden variables)."""
    for filter_index, predicate in filters:
        if filter_index in consumed or predicate.op != "=":
            continue
        for this, other in (
            (predicate.left, predicate.right),
            (predicate.right, predicate.left),
        ):
            if this != target:
                continue
            if {v.name for v in variables_of(other)} & forbidden:
                continue
            return filter_index, other
    return None


def _references(expression: ArgExpr, names: set[str]) -> bool:
    return any(v.name in names for v in variables_of(expression))


def _substitute_expr(
    expression: ArgExpr, substitutions: dict[str, ArgExpr]
) -> ArgExpr:
    if not substitutions:
        return expression
    if isinstance(expression, Var):
        return substitutions.get(expression.name, expression)
    if isinstance(expression, Concat):
        return Concat(
            tuple(_substitute_expr(p, substitutions) for p in expression.parts)
        )
    return expression


def _substitute_predicate(
    predicate: Predicate, substitutions: dict[str, ArgExpr]
) -> Predicate:
    if not substitutions:
        return predicate
    if isinstance(predicate, FunctionPredicate):
        return replace(
            predicate,
            arguments=tuple(
                _substitute_expr(a, substitutions) for a in predicate.arguments
            ),
        )
    return replace(
        predicate,
        left=_substitute_expr(predicate.left, substitutions),
        right=_substitute_expr(predicate.right, substitutions),
    )


def _all_variable_names(calculus: CalculusQuery) -> set[str]:
    names: set[str] = set()
    for predicate in calculus.predicates:
        if isinstance(predicate, FunctionPredicate):
            names |= {v.name for v in predicate.input_variables()}
            names |= {v.name for v in predicate.outputs}
        else:
            names |= {v.name for v in predicate.input_variables()}
    for item in calculus.head:
        names |= {v.name for v in variables_of(item.expression)}
    return names


def _fresh_var(alias: str, column: str, taken: set[str]) -> Var:
    name = f"{alias}_{column}"
    while name in taken:
        name += "_ap"
    taken.add(name)
    return Var(name)


def _remaining_unbound(
    unbound: set[str],
    predicates: list[Predicate],
    head: tuple[HeadItem, ...],
) -> set[str]:
    """Unbound names still referenced and still not produced."""
    produced: set[str] = set()
    referenced: set[str] = set()
    for predicate in predicates:
        if isinstance(predicate, FunctionPredicate):
            produced |= {v.name for v in predicate.outputs}
            referenced |= {v.name for v in predicate.input_variables()}
        else:
            referenced |= {v.name for v in predicate.input_variables()}
    for item in head:
        referenced |= {v.name for v in variables_of(item.expression)}
    return {n for n in unbound if n in referenced and n not in produced}
