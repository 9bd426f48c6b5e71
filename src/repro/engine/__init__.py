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
from repro.engine.shared import CrossQueryBatcher

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionRejected",
    "AdmissionStats",
    "CapacityController",
    "CompiledPlan",
    "CrossQueryBatcher",
    "EngineClosed",
    "EngineStats",
    "PlanCache",
    "PlanCacheStats",
    "PoolRegistry",
    "PoolRegistryStats",
    "QueryEngine",
    "plan_dependencies",
    "pool_fingerprint",
]
