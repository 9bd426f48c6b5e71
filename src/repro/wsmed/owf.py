"""Operation wrapper function (OWF) generation.

For every operation of an imported WSDL document, WSMED generates an OWF
that calls the operation through the ``cwo`` built-in and *flattens* the
nested result structure into a stream of typed tuples (paper Fig 2).  The
flattening program is derived mechanically from the operation's output
schema: atomic elements along the path become columns, repeated elements
become iteration levels.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.interpreter import ExecutionContext, round_trip
from repro.fdb.functions import FunctionDef, FunctionKind, Parameter
from repro.fdb.types import AtomicType, BOOLEAN, REAL, TupleType
from repro.fdb.values import Record
from repro.services.wsdl import WsdlDocument, WsdlOperation, XsdElement
from repro.util.errors import ServiceFault, WsdlError


@dataclass(frozen=True)
class _Level:
    """One flattening level: columns to read here, plus how to descend."""

    atomic_columns: tuple[str, ...]
    descend: str | None  # child element name to recurse into (None = leaf)
    descend_repeated: bool


def _build_levels(element: XsdElement, path: list[str]) -> list[_Level]:
    """Derive the flattening levels under a complex ``element``.

    At most one non-atomic child per level is supported — the shape of all
    data providing services the paper uses (a single nested collection).
    More than one would require a cross product with no defined order, so
    it is rejected at import time.
    """
    if element.complex is None:
        raise WsdlError(f"element {element.name!r} is atomic, cannot flatten")
    atomics = []
    complexes = []
    for child in element.complex.children:
        if child.is_atomic and not child.repeated:
            atomics.append(child.name)
        else:
            complexes.append(child)
    if len(complexes) > 1:
        names = ", ".join(c.name for c in complexes)
        raise WsdlError(
            f"result element {element.name!r} has multiple nested collections "
            f"({names}); WSMED flattening supports a single nested path"
        )
    if not complexes:
        return [_Level(tuple(atomics), None, False)]
    child = complexes[0]
    if child.is_atomic:  # a repeated atomic: one column named after it
        return [
            _Level(tuple(atomics), child.name, True),
            _Level((child.name,), None, False),
        ]
    return [
        _Level(tuple(atomics), child.name, child.repeated)
    ] + _build_levels(child, path + [child.name])


def _column_atom(element: XsdElement, column: str) -> AtomicType:
    for child in element.complex.children:
        if child.name == column and child.is_atomic:
            return child.atom
    raise WsdlError(f"no atomic child {column!r} under {element.name!r}")


class OperationWrapper:
    """A generated OWF: typed signature plus the flattening program."""

    def __init__(self, document: WsdlDocument, operation: WsdlOperation) -> None:
        self.document = document
        self.operation = operation
        self.name = operation.name
        self.parameters = operation.input_parameters()
        self._levels = _build_levels(operation.output_element, [])
        self.result_columns = self._derive_result_columns()

    def _derive_result_columns(self) -> list[tuple[str, AtomicType]]:
        columns: list[tuple[str, AtomicType]] = []
        element = self.operation.output_element
        for level in self._levels:
            for column in level.atomic_columns:
                columns.append((column, _column_atom(element, column)))
            if level.descend is None:
                break
            child = element.complex.child(level.descend)
            if child.is_atomic:
                columns.append((level.descend, child.atom))
                break
            element = child
        names = [name for name, _ in columns]
        if len(set(name.lower() for name in names)) != len(names):
            raise WsdlError(
                f"flattened result of {self.name!r} has colliding column "
                f"names: {names}"
            )
        return columns

    # -- runtime -------------------------------------------------------------

    def coerce_arguments(self, arguments: list) -> list:
        """Best-effort coercion of runtime argument values to input types."""
        coerced = []
        for (name, atom), value in zip(self.parameters, arguments):
            if atom is REAL and isinstance(value, int) and not isinstance(value, bool):
                value = float(value)
            elif atom is BOOLEAN and value in ("true", "false"):
                value = value == "true"
            coerced.append(value)
        return coerced

    async def call(self, ctx: ExecutionContext, arguments: list) -> list[tuple]:
        """Invoke the wrapped operation and flatten the result into rows.

        This is the OWF body of Fig 2: ``cwo(uri, service, operation,
        args)`` followed by record/sequence navigation.  Retriable service
        faults are retried per the context's policy; the final attempt's
        fault propagates.
        """
        coerced = self.coerce_arguments(arguments)
        run = ctx.run
        attempt = 0
        while True:
            started = ctx.kernel.now()
            try:
                out = await self._invoke(ctx, coerced, started)
                break
            except ServiceFault as fault:
                attempt += 1
                if not fault.retriable or attempt > run.retries:
                    # The fault survived the call-level retries; what
                    # happens next is the pool's on_error decision, so
                    # leave a marker the fault report can pick up.
                    if run.obs.enabled:
                        run.obs.instant(
                            "call_fault",
                            parent=ctx.obs_span,
                            process=ctx.process_name,
                            at=ctx.kernel.now(),
                            operation=self.name,
                            attempts=attempt,
                            retriable=fault.retriable,
                            error=str(fault),
                        )
                    raise
                if run.obs.enabled:
                    run.obs.instant(
                        "retry",
                        parent=ctx.obs_span,
                        process=ctx.process_name,
                        at=ctx.kernel.now(),
                        operation=self.name,
                        attempt=attempt,
                    )
                await ctx.kernel.sleep(run.retry_backoff)
        rows: list[tuple] = []
        for response in out:  # `out` is a Sequence (Fig 2 line 15)
            self._flatten(response, 0, (), rows)
        return rows

    async def _invoke(self, ctx: ExecutionContext, coerced: list, started: float):
        """One ``cwo`` transport round trip through
        :func:`~repro.algebra.interpreter.round_trip`.

        A memo hit (or a collapse onto an in-flight identical call) skips
        the broker entirely; on a traced run the call's ``ws`` span says
        which in its ``outcome`` (``miss``, ``hit`` or ``collapsed``), so
        traces distinguish real round trips from avoided ones.
        """
        obs = ctx.run.obs
        ws_span = -1
        if obs.enabled:
            ws_span = obs.start(
                self.name,
                category="ws",
                parent=ctx.obs_span,
                process=ctx.process_name,
                at=started,
                operation=self.name,
                service=self.document.service_name,
            )
        document = self.document
        try:
            out, outcome = await round_trip(
                ctx, document.uri, document.service_name, self.name, coerced, ws_span
            )
        except BaseException as error:
            if ws_span != -1:
                obs.finish(ws_span, at=ctx.kernel.now(), error=str(error))
            raise
        if ws_span != -1:
            obs.finish(ws_span, at=ctx.kernel.now(), outcome=outcome)
        return out

    def _flatten(
        self, value, level_index: int, prefix: tuple, rows: list[tuple]
    ) -> None:
        level = self._levels[level_index]
        if not isinstance(value, Record):
            # A repeated atomic leaf: the value itself is the column.
            rows.append(prefix + (value,))
            return
        here = prefix + tuple([value[column] for column in level.atomic_columns])
        if level.descend is None:
            rows.append(here)
            return
        child_value = value[level.descend]
        if level.descend_repeated:
            for instance in child_value:
                self._descend(instance, level_index + 1, here, rows)
        else:
            self._descend(child_value, level_index + 1, here, rows)

    def _descend(self, value, level_index: int, prefix: tuple, rows: list[tuple]) -> None:
        if level_index >= len(self._levels):
            rows.append(prefix + (value,))
            return
        self._flatten(value, level_index, prefix, rows)

    # -- registration -----------------------------------------------------------

    def as_function(self) -> FunctionDef:
        return FunctionDef(
            name=self.name,
            kind=FunctionKind.OWF,
            parameters=tuple(Parameter(n, t) for n, t in self.parameters),
            result=TupleType(tuple(self.result_columns)),
            implementation=self,
            documentation=(
                f"Wraps web service operation {self.document.service_name}."
                f"{self.name} at {self.document.uri}"
            ),
        )

    def render_source(self) -> str:
        """AmosQL-style source of the generated OWF, in the style of Fig 2."""
        params = ", ".join(f"{atom} {name}" for name, atom in self.parameters)
        row = ", ".join(f"{atom} {name}" for name, atom in self.result_columns)
        args = ", ".join(f"{{{name}}}" for name, _ in self.parameters) or "{}"
        lines = [
            f"create function {self.name}({params}) -> Bag of <{row}> as",
            "select " + ", ".join(name for name, _ in self.result_columns),
            "from   the flattened result of",
            f"       cwo('{self.document.uri}',",
            f"           '{self.document.service_name}', '{self.name}', {args});",
        ]
        return "\n".join(lines)


def generate_owf(document: WsdlDocument, operation_name: str) -> OperationWrapper:
    """Generate the OWF for one operation of an imported WSDL document."""
    return OperationWrapper(document, document.operation(operation_name))
