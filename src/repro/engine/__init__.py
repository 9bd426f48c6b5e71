"""Resident query engine: plan cache, warm pools, multi-query admission."""

from repro.engine.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionRejected,
    AdmissionStats,
    CapacityController,
)
from repro.engine.engine import EngineClosed, EngineStats, QueryEngine
from repro.engine.plan_cache import CompiledPlan, PlanCache, PlanCacheStats
from repro.engine.pools import PoolRegistry, PoolRegistryStats, pool_fingerprint

__all__ = [
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
    "pool_fingerprint",
]
