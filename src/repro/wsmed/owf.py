"""Operation wrapper function (OWF) generation.

For every operation of an imported WSDL document, WSMED generates an OWF
that calls the operation through the ``cwo`` built-in and *flattens* the
nested result structure into a stream of typed tuples (paper Fig 2).  The
flattening program is derived mechanically from the operation's output
schema — atomic elements along the path become columns, repeated elements
become iteration levels — and compiled into the SOAP codec
(:attr:`repro.services.soap.Codec.flattening`), so an answer is decoded
into its rows once and the OWF passes them on.
"""

from __future__ import annotations

from repro.algebra.interpreter import ExecutionContext, round_trip
from repro.cache import HIT
from repro.fdb.functions import FunctionDef, FunctionKind, Parameter
from repro.fdb.types import BOOLEAN, REAL, TupleType
from repro.services.wsdl import WsdlDocument, WsdlOperation
from repro.util.errors import ServiceFault, WsdlError


class OperationWrapper:
    """A generated OWF: typed signature and result columns; its rows are
    decoded by the output element's codec."""

    def __init__(self, document: WsdlDocument, operation: WsdlOperation) -> None:
        self.document = document
        self.operation = operation
        self.name = operation.name
        self.parameters = operation.input_parameters()
        self.result_columns = list(operation.output_element.codec.flattening.columns)
        names = [name for name, _ in self.result_columns]
        if len(set(name.lower() for name in names)) != len(names):
            raise WsdlError(
                f"flattened result of {self.name!r} has colliding column "
                f"names: {names}"
            )

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

    def hit(self, ctx: ExecutionContext, arguments: list) -> tuple[tuple, ...] | None:
        """This call's memoized rows, or None: then await :meth:`call`
        (which alone serves a worker child that proxies its calls).  A
        hit folds into the footprint of the plan-function call this
        process serves; traced, it leaves the ``ws`` span a hit in
        :meth:`call` would."""
        run = ctx.run
        if run.memo is None or run.remote is not None:
            return None
        document = self.document
        key = (document.uri, document.service_name, self.name,
               tuple(self.coerce_arguments(arguments)))
        entry = run.memo.lookup(key, run.cache_stats)
        if entry is None:
            return None
        if ctx.footprint is not None:
            ctx.footprint.add(1, entry[1])
        if run.obs.enabled:
            now = ctx.kernel.now()
            run.obs.finish(self._ws_span(ctx, now), at=now, outcome=HIT)
        return entry[0]

    async def call(self, ctx: ExecutionContext, arguments: list) -> tuple[tuple, ...]:
        """Invoke the wrapped operation; returns its rows.

        This is the OWF body of Fig 2: ``cwo(uri, service, operation,
        args)``, whose answer the SOAP codec already decoded into the
        flattened rows.  The tuple is immutable, so the memo and every
        caller share one.  Each attempt is one ``round_trip``, whose
        outcome (``miss``, ``hit`` or ``collapsed``) its traced ``ws`` span
        records, and whose answering memo entry folds into the footprint
        of the plan-function call this process serves (a fault poisons
        it).  Retriable service faults are retried per the context's
        policy; the final attempt's fault propagates.
        """
        coerced = self.coerce_arguments(arguments)
        run = ctx.run
        obs = run.obs
        document = self.document
        attempt = 0
        while True:
            ws_span = self._ws_span(ctx, ctx.kernel.now()) if obs.enabled else -1
            try:
                out, outcome = await round_trip(
                    ctx, document.uri, document.service_name, self.name, coerced, ws_span,
                    ctx.footprint,
                )
            except ServiceFault as fault:
                if ws_span != -1:
                    obs.finish(ws_span, at=ctx.kernel.now(), error=str(fault))
                if ctx.footprint is not None:
                    ctx.footprint.poison()  # faults are never memoized
                attempt += 1
                if not fault.retriable or attempt > run.retries:
                    # The fault survived the call-level retries; what
                    # happens next is the pool's on_error decision, so
                    # leave a marker the fault report can pick up.
                    if obs.enabled:
                        obs.instant(
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
                if obs.enabled:
                    obs.instant(
                        "retry",
                        parent=ctx.obs_span,
                        process=ctx.process_name,
                        at=ctx.kernel.now(),
                        operation=self.name,
                        attempt=attempt,
                    )
                await ctx.kernel.sleep(run.retry_backoff)
                continue
            except BaseException as error:
                if ws_span != -1:
                    obs.finish(ws_span, at=ctx.kernel.now(), error=str(error))
                raise
            if ws_span != -1:
                obs.finish(ws_span, at=ctx.kernel.now(), outcome=outcome)
            return out

    def _ws_span(self, ctx: ExecutionContext, at: float) -> int:
        """Open the ``ws`` span of one attempt of this call."""
        return ctx.run.obs.start(
            self.name,
            category="ws",
            parent=ctx.obs_span,
            process=ctx.process_name,
            at=at,
            operation=self.name,
            service=self.document.service_name,
        )

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
