"""Metrics registry: counters, gauges and fixed-bucket histograms.

Producers register named instruments on a :class:`MetricsRegistry`
(every run's is assembled by :class:`repro.collio.api.RunPipeline`),
consumers read a plain-data :meth:`~MetricsRegistry.snapshot`.  All
three instrument kinds are
deliberately minimal and allocation-free on the hot path:

* :class:`CounterMetric` — monotonically increasing integer;
* :class:`GaugeMetric` — last-written value;
* :class:`HistogramMetric` — fixed bucket boundaries chosen at creation
  (so merged/compared snapshots always line up), cumulative-count
  semantics like Prometheus ("count of observations <= boundary").
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Mapping

__all__ = [
    "CounterMetric",
    "GaugeMetric",
    "HistogramMetric",
    "MetricsRegistry",
    "DURATION_BUCKETS",
]

#: Default histogram boundaries for simulated durations, seconds.
#: Decade ladder spanning sub-microsecond MPI call overheads up to whole
#: collective writes; a final implicit +inf bucket catches the rest.
DURATION_BUCKETS: tuple[float, ...] = (
    1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)


class CounterMetric:
    """Monotonically increasing integer counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, by: int = 1) -> None:
        if by < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (by={by})")
        self.value += by


class GaugeMetric:
    """Last-written value (e.g. a peak or a configuration fact)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def max(self, value: float) -> None:
        """Keep the running maximum."""
        if value > self.value:
            self.value = value


class HistogramMetric:
    """Histogram with fixed, sorted bucket boundaries.

    ``counts[i]`` is the number of observations ``<= boundaries[i]``
    (non-cumulative per-bucket storage; :meth:`cumulative` derives the
    Prometheus-style view), with one extra overflow bucket at the end.
    """

    __slots__ = ("name", "boundaries", "counts", "count", "sum")

    def __init__(self, name: str, boundaries: Iterable[float] = DURATION_BUCKETS) -> None:
        bounds = tuple(float(b) for b in boundaries)
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one boundary")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram {name!r} boundaries must be strictly increasing")
        self.name = name
        self.boundaries = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.boundaries, value)] += 1
        self.count += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def cumulative(self) -> list[tuple[float, int]]:
        """``(boundary, count_of_observations_at_or_below)`` pairs."""
        out, running = [], 0
        for boundary, n in zip(self.boundaries, self.counts):
            running += n
            out.append((boundary, running))
        return out


class MetricsRegistry:
    """Named instruments with get-or-create access and plain-data export."""

    def __init__(self) -> None:
        self._counters: dict[str, CounterMetric] = {}
        self._gauges: dict[str, GaugeMetric] = {}
        self._histograms: dict[str, HistogramMetric] = {}

    # -- instruments ----------------------------------------------------
    def counter(self, name: str) -> CounterMetric:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = CounterMetric(name)
        return metric

    def gauge(self, name: str) -> GaugeMetric:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = GaugeMetric(name)
        return metric

    def histogram(self, name: str, boundaries: Iterable[float] = DURATION_BUCKETS) -> HistogramMetric:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = HistogramMetric(name, boundaries)
        elif tuple(float(b) for b in boundaries) != metric.boundaries:
            raise ValueError(
                f"histogram {name!r} already registered with different boundaries"
            )
        return metric

    # -- bulk helpers ---------------------------------------------------
    def merge_counters(self, counters: Mapping[str, int]) -> None:
        """Add a plain counter mapping (e.g. a tracer's) into the registry."""
        for name, value in counters.items():
            self.counter(name).inc(int(value))

    def counter_values(self) -> dict[str, int]:
        """All counters as a plain ``{name: value}`` dict (sorted keys)."""
        return {name: self._counters[name].value for name in sorted(self._counters)}

    def snapshot(self) -> dict:
        """JSON-safe dump of every instrument."""
        return {
            "counters": self.counter_values(),
            "gauges": {name: self._gauges[name].value for name in sorted(self._gauges)},
            "histograms": {
                name: {
                    "boundaries": list(h.boundaries),
                    "counts": list(h.counts),
                    "count": h.count,
                    "sum": h.sum,
                }
                for name, h in sorted(self._histograms.items())
            },
        }
