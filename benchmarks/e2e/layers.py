"""Sum a cProfile run's self time (``tottime``) into the system's layers.

A layer is a module under ``src/repro``.  The profiles are taken with
``builtins=False``, so a builtin's time is already part of the Python
function that called it.  Standard-library functions have no layer of
their own: their self time is charged to the nearest layer up the call
graph, split by how long each caller kept them busy — so ``xml`` lands in
``services.soap``, ``json`` in ``serve`` (or in ``engine``, for pool
fingerprints), ``pickle``/``multiprocessing`` in ``runtime.wire``.  Two
exceptions: the ``asyncio`` event loop *is* the real-time kernel, so it
counts as ``runtime`` wherever it is entered from, and ``selectors`` is
where that loop blocks waiting for another process: ``idle``, not work.
"""

from __future__ import annotations

import pstats

from .metrics import LAYERS

_WIRE_FILES = (
    "runtime/wire.py",
    "runtime/workers.py",
    "runtime/multiprocess.py",
    "parallel/placement.py",
)
_SERVICE_FILES = {
    "services/broker.py": "services.broker",
    "services/registry.py": "services.broker",
    "services/latency.py": "services.broker",
    "services/soap.py": "services.soap",
    "services/wsdl.py": "services.soap",
    "services/providers.py": "services.providers",
    "services/geodata.py": "services.providers",
}


def _own_layer(function: tuple) -> str | None:
    """The layer a profiled function belongs to; None when it has none."""
    filename = function[0].replace("\\", "/")
    if "/repro/" in filename:
        relative = filename.rsplit("/repro/", 1)[1]
        if relative in _WIRE_FILES:
            return "runtime.wire"
        if relative in _SERVICE_FILES:
            return _SERVICE_FILES[relative]
        package = relative.split("/", 1)[0]
        return package if package in LAYERS else "other"
    if filename.endswith("benchmarks/e2e/world.py"):
        return "services.providers"  # the chain world's dict-lookup provider
    if filename.endswith("/selectors.py"):
        return "idle"
    if "/asyncio/" in filename:
        return "runtime"
    return None


def layer_self_seconds(profile) -> dict[str, float]:
    """Self seconds per layer; ``profile`` is a Profile or a stats file."""
    stats = pstats.Stats(profile).stats
    shares: dict[tuple, dict[str, float]] = {}

    def share(function: tuple, path: frozenset) -> dict[str, float]:
        """Fractions of ``function``'s self time owed to each layer."""
        own = _own_layer(function)
        if own is not None:
            return {own: 1.0}
        if function in shares:
            return shares[function]
        callers = stats[function][4] if function in stats else {}
        # Weigh callers by the cumulative time they kept this function busy.
        weights = {
            caller: cumulative
            for caller, (_, _, _, cumulative) in callers.items()
            if caller not in path and cumulative > 0
        }
        total = sum(weights.values())
        if not total:
            return {"other": 1.0}  # a root, or only reached recursively
        result: dict[str, float] = {}
        for caller, weight in weights.items():
            for layer, fraction in share(caller, path | {function}).items():
                result[layer] = result.get(layer, 0.0) + fraction * weight / total
        shares[function] = result
        return result

    totals = dict.fromkeys(LAYERS, 0.0)
    for function, (_, _, self_time, _, _) in stats.items():
        for layer, fraction in share(function, frozenset()).items():
            totals[layer] += fraction * self_time
    return totals
