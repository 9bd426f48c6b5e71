"""``ProcessKernel`` — the multi-process kernel.

An :class:`~repro.runtime.realtime.AsyncioKernel` (always resident) that
additionally owns a fleet of OS worker processes
(:class:`~repro.runtime.workers.WorkerPool`) and a placement layer
(:class:`~repro.parallel.placement.Placement`).  Execution contexts
attached to it via :meth:`ProcessKernel.attach_placement` spawn the child
query processes of ``FF_APPLYP``/``AFF_APPLYP`` pools *inside the
workers* instead of as coordinator-loop coroutines — real CPU
parallelism for compute-heavy plan functions, while the coordinator keeps
the protocol, the broker (unless ``local_services``), the caches'
accounting and the observability pipeline.

Everything else — the SQL frontend, the resident
:class:`~repro.engine.QueryEngine`, warm pool reuse across queries, the
fault-tolerance policies — runs unchanged on top.  A kernel that never
has a placement attached behaves exactly like a resident
``AsyncioKernel``.
"""

from __future__ import annotations

from repro.parallel.placement import Placement
from repro.runtime.realtime import AsyncioKernel
from repro.runtime.workers import WorkerPool
from repro.util.errors import KernelError


class ProcessKernel(AsyncioKernel):
    """Kernel that shards query-process trees across OS processes.

    ``workers``            number of OS worker processes.
    ``time_scale``         model-to-wall clock factor (as AsyncioKernel).
    ``local_services``     ship the service registry into the workers so
                           children call services *in-process* instead of
                           proxying through the coordinator's broker.
                           Decentralizes call accounting (each worker
                           meters its own calls) but lets CPU-heavy
                           service work run truly in parallel.
    """

    def __init__(
        self,
        *,
        workers: int = 4,
        time_scale: float = 0.001,
        local_services: bool = False,
    ) -> None:
        super().__init__(time_scale=time_scale, resident=True)
        self.local_services = local_services
        self.worker_pool = WorkerPool(
            workers, time_scale=time_scale, clock=self.now
        )
        self.placement = Placement(self, self.worker_pool)

    def attach_placement(
        self,
        ctx,
        *,
        functions=None,
        registry=None,
        seed: int = 0,
    ) -> None:
        """Point ``ctx.placement`` at this kernel's placement layer.

        Ships the function registry (and, under ``local_services``, the
        service registry) to the workers.  A shut-down kernel has no
        workers left to place children on, and none are started again.
        """
        if self.worker_pool.closed:
            raise KernelError(
                "this ProcessKernel is shut down (QueryEngine.close() shuts down "
                "the kernel it runs on); build a new kernel"
            )
        services = registry if self.local_services else None
        self.placement.attach(ctx, functions=functions, services=services, seed=seed)

    def shutdown(self) -> None:
        """Stop workers first (their pipes feed the loop), then the loop."""
        self.placement.shutdown()
        self.worker_pool.shutdown()
        super().shutdown()
