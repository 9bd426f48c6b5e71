"""Small statistics helpers used by monitoring and benchmark reporting."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass
class RunningStat:
    """Count / sum / min / max / mean over a stream of samples.

    Used by ``AFF_APPLYP`` monitoring cycles and by per-endpoint broker
    statistics, where only cheap aggregates are needed.
    """

    count: int = 0
    total: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def merge(self, other: "RunningStat") -> None:
        """Fold the samples ``other`` aggregated into this one."""
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    @property
    def mean(self) -> float:
        """Mean of the samples seen so far; 0.0 when empty."""
        if self.count == 0:
            return 0.0
        return self.total / self.count


def quantile(samples: list[float], q: float) -> float:
    """Linear-interpolation quantile of ``samples`` (q in [0, 1]).

    Raises ``ValueError`` on an empty list or out-of-range ``q`` so callers
    never silently report a quantile of nothing.
    """
    if not samples:
        raise ValueError("quantile of empty sample list")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile fraction out of range: {q}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    lower = int(math.floor(position))
    upper = int(math.ceil(position))
    if lower == upper:
        return ordered[lower]
    weight = position - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight
