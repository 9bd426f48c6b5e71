"""Shared utilities: error hierarchy, seeded RNG, running statistics.

These helpers are deliberately dependency-free so every other subpackage can
use them without import cycles.
"""

from repro.util.errors import (
    BindingError,
    CalculusError,
    DeadlockError,
    KernelError,
    ParseError,
    PlanError,
    ReproError,
    ServiceFault,
    UnknownServiceError,
    WsdlError,
)
from repro.util.rng import derive_rng, stable_hash
from repro.util.stats import RunningStat, quantile

__all__ = [
    "BindingError",
    "CalculusError",
    "DeadlockError",
    "KernelError",
    "ParseError",
    "PlanError",
    "ReproError",
    "ServiceFault",
    "UnknownServiceError",
    "WsdlError",
    "derive_rng",
    "stable_hash",
    "RunningStat",
    "quantile",
]
