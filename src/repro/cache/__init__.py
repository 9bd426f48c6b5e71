"""Call-result caching for web-service calls.

See :mod:`repro.cache.call_cache` for the design notes; the public
surface is re-exported here.
"""

from repro.cache.call_cache import (
    COLLAPSED,
    HIT,
    MISS,
    CacheConfig,
    CacheStats,
    CallCache,
    MemoStore,
    stable_hash,
)

__all__ = [
    "COLLAPSED",
    "HIT",
    "MISS",
    "CacheConfig",
    "CacheStats",
    "CallCache",
    "MemoStore",
    "stable_hash",
]
