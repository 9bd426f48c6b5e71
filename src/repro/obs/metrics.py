"""Metrics registry: counters, gauges and histograms keyed by name + labels.

The resident engine and its admission controller keep their live
statistics in one (``QueryEngine.metrics``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.util.stats import quantile

LabelItems = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str] | None) -> LabelItems:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass
class Counter:
    """Monotonically increasing count."""

    name: str
    labels: LabelItems = ()
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def as_dict(self) -> dict[str, Any]:
        return {"type": "counter", "value": self.value}


@dataclass
class Gauge:
    """Point-in-time value (last write wins)."""

    name: str
    labels: LabelItems = ()
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def as_dict(self) -> dict[str, Any]:
        return {"type": "gauge", "value": self.value}


@dataclass
class Histogram:
    """Sample distribution with quantile readout."""

    name: str
    labels: LabelItems = ()
    samples: list[float] = field(default_factory=list)

    def observe(self, value: float) -> None:
        self.samples.append(value)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        return sum(self.samples)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.samples else 0.0

    def percentile(self, q: float) -> float:
        if not self.samples:
            return 0.0
        return quantile(self.samples, q)

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "type": "histogram",
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
        }
        if self.samples:
            out["min"] = min(self.samples)
            out["max"] = max(self.samples)
            out["p50"] = self.percentile(0.5)
            out["p95"] = self.percentile(0.95)
        return out


Metric = Counter | Gauge | Histogram


class MetricsRegistry:
    """Get-or-create store of metrics keyed by (name, labels)."""

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, LabelItems], Metric] = {}

    def _get(self, cls: type, name: str, labels: dict[str, str] | None) -> Metric:
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name=name, labels=key[1])
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def counter(self, name: str, labels: dict[str, str] | None = None) -> Counter:
        return self._get(Counter, name, labels)  # type: ignore[return-value]

    def gauge(self, name: str, labels: dict[str, str] | None = None) -> Gauge:
        return self._get(Gauge, name, labels)  # type: ignore[return-value]

    def histogram(self, name: str, labels: dict[str, str] | None = None) -> Histogram:
        return self._get(Histogram, name, labels)  # type: ignore[return-value]

    def value(self, name: str, labels: dict[str, str] | None = None) -> float:
        metric = self._metrics.get((name, _label_key(labels)))
        if metric is None:
            return 0.0
        if isinstance(metric, Histogram):
            return metric.total
        return metric.value

    def get(self, name: str, labels: dict[str, str] | None = None) -> Metric | None:
        return self._metrics.get((name, _label_key(labels)))

    def discard(self, name: str, labels: dict[str, str] | None = None) -> None:
        """Forget one metric (a labelled series whose subject is gone)."""
        self._metrics.pop((name, _label_key(labels)), None)

    def __iter__(self) -> Iterator[Metric]:
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> list[str]:
        return sorted({name for name, _ in self._metrics})

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for (name, labels), metric in sorted(self._metrics.items()):
            entry = metric.as_dict()
            if labels:
                entry["labels"] = dict(labels)
                out.setdefault(name, []).append(entry)
            else:
                out[name] = entry
        return out
