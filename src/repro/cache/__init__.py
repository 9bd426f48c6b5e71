"""Call-result memoization for web-service calls.

See :mod:`repro.cache.call_cache` for the design notes; the public
surface is re-exported here.
"""

from repro.cache.call_cache import (
    COLLAPSED,
    HIT,
    MISS,
    CacheConfig,
    CacheStats,
    CallMemo,
    Footprint,
    PlanSignature,
    stable_hash,
)

#: The name the repo benchmark's cache probe (``benchmarks/e2e/probes.py``)
#: imports; it times ``CallMemo.call`` hits.
CallCache = CallMemo

__all__ = [
    "COLLAPSED",
    "HIT",
    "MISS",
    "CacheConfig",
    "CacheStats",
    "CallMemo",
    "Footprint",
    "PlanSignature",
    "stable_hash",
]
