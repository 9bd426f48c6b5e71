"""Resident query engine: plan cache, warm pools, multi-query admission."""

from repro.engine.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionRejected,
    AdmissionStats,
    CapacityController,
)
from repro.engine.engine import EngineClosed, EngineStats, QueryEngine
from repro.engine.plan_cache import (
    CompiledPlan,
    PlanCache,
    PlanCacheStats,
    plan_dependencies,
)
from repro.engine.pools import PoolRegistry, PoolRegistryStats, pool_fingerprint
from repro.engine.shared import (
    SHARED_HIT,
    SHARED_WAIT,
    SharedCallCache,
    SharedStats,
)

__all__ = [
    "SHARED_HIT",
    "SHARED_WAIT",
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionRejected",
    "AdmissionStats",
    "CapacityController",
    "CompiledPlan",
    "EngineClosed",
    "EngineStats",
    "PlanCache",
    "PlanCacheStats",
    "PoolRegistry",
    "PoolRegistryStats",
    "QueryEngine",
    "SharedCallCache",
    "SharedStats",
    "plan_dependencies",
    "pool_fingerprint",
]
