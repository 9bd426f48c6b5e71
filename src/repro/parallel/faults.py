"""Fault tolerance of query-process trees: policies and injection.

The paper assumes query processes and their web-service calls never die;
a production mediator cannot.  This module holds the pieces of the
pool-level fault-tolerance layer that are independent of the operator
runtime itself:

* :class:`FaultInjection` — every fault a query injects on purpose:
  per-call failure and crash probabilities of its query processes,
  seeded per child so every run replays identically, and the probability
  of a retriable service fault, drawn per call from the query's stream;
* :class:`InjectedCrash` — the exception that simulates a query process
  dying abruptly (deliberately *not* a :class:`~repro.util.errors.ReproError`,
  so the child's per-call error handling cannot catch it).

The query-wide accounting is :class:`~repro.obs.run.FaultStats`, counted
by the pools where they fail, redeliver, respawn and trip the breaker.
The policy itself (``on_error`` = ``fail`` | ``retry`` | ``skip``) and the
injection ride the query's :class:`~repro.obs.run.QueryRun`; the handling
lives in :class:`~repro.parallel.ff_applyp.ChildPool`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.util.errors import PlanError, ReproError
from repro.util.rng import derive_rng


class InjectedCrash(Exception):
    """Simulates a query process dying abruptly mid-service.

    Not a :class:`ReproError` on purpose: the child's per-call error
    handling converts ``ReproError`` into a protocol message, while a
    crash must escape the receive loop entirely, exactly like a real
    process death would.
    """


@dataclass(frozen=True)
class FaultInjection:
    """The faults one query injects on purpose.

    ``call_failure_probability``  chance that any one plan-function call
                                  raises a (policy-visible) failure before
                                  doing work — models a web service or
                                  plan error surviving call-level retries.
    ``crash_probability``         chance that the child process dies
                                  abruptly when starting a call — models
                                  OOM kills, segfaults, machine loss.
    ``service_fault_probability`` chance that the broker fails a call
                                  with a retriable ``ServiceFault``
                                  (drawn from the query's own stream,
                                  :meth:`service_fault_stream`).
    ``seed``                      root of the per-child and service-fault
                                  random streams, so a run with the same
                                  seed injects the same faults at the
                                  same calls.
    """

    call_failure_probability: float = 0.0
    crash_probability: float = 0.0
    service_fault_probability: float = 0.0
    seed: int = 2009

    def __post_init__(self) -> None:
        for name in (
            "call_failure_probability",
            "crash_probability",
            "service_fault_probability",
        ):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise PlanError(f"fault injection {name} must be in [0, 1), got {value}")

    def active(self) -> bool:
        """Whether query processes fail or crash (service faults aside)."""
        return self.call_failure_probability > 0.0 or self.crash_probability > 0.0

    def service_fault_stream(self, *labels: object) -> random.Random | None:
        """The stream a query draws its service faults from, one draw per
        call, derived from ``(seed, "service-faults", *labels)``: never the
        broker's server-time jitter, so the faults move with the seed and
        leave later queries' timings alone.  None when the probability is
        0 — such a query draws nothing."""
        if not self.service_fault_probability:
            return None
        return derive_rng(self.seed, "service-faults", *labels)

    def injector_for(self, process_name: str) -> "FaultInjector":
        """A deterministic per-child injector (independent streams)."""
        return FaultInjector(self, process_name)


class FaultInjector:
    """The per-child side of :class:`FaultInjection`: one seeded stream."""

    def __init__(self, injection: FaultInjection, process_name: str) -> None:
        self._injection = injection
        self._name = process_name
        self._rng = derive_rng(injection.seed, "fault-injection", process_name)

    def before_call(self) -> None:
        """Raise the configured fault, if this call draws one.

        :class:`InjectedCrash` simulates the process dying;
        :class:`ReproError` simulates the call itself failing and flows
        through the child's normal per-call error path.
        """
        if (
            self._injection.crash_probability
            and self._rng.random() < self._injection.crash_probability
        ):
            raise InjectedCrash(f"injected crash in {self._name}")
        if (
            self._injection.call_failure_probability
            and self._rng.random() < self._injection.call_failure_probability
        ):
            raise ReproError(f"injected call failure in {self._name}")
