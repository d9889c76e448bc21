"""Dependency-free metrics: counters, gauges, log-bucket histograms.

The paper's argument is carried by measured quantities — hit rate,
invalidations per update template, home-server load, p90 latency — so the
deployed service needs a way to *export* them at runtime, not just
accumulate them in process-local dataclasses.  This module is the single
registry every layer reports into:

* :class:`Counter` — monotonically increasing totals (requests, retries);
* :class:`Gauge` — instantaneous values, either set directly or backed by
  a callable sampled at snapshot time (in-flight requests, cache size,
  fan-out queue depths);
* :class:`Histogram` — fixed logarithmic buckets with O(1) ``observe`` and
  quantile estimates by linear interpolation inside the winning bucket,
  so p50/p90/p99 never require retaining or re-sorting raw samples.

``snapshot()`` produces a JSON-safe dict (the ``STATS`` wire frame and the
``repro stats`` CLI verb serialize it as-is); :func:`merge_snapshots` sums
any number of snapshots for fleet-level aggregation, mirroring
:meth:`repro.dssp.stats.DsspStats.merge`.

Exposure safety: metric *names* and *values* are the only things that ever
leave this module.  Nothing here stores statement text, parameters, or
result rows — the registry cannot leak what it was never given.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Callable, Sequence

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BOUNDS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "histogram_quantile",
    "log_buckets",
    "merge_snapshots",
    "per_app_counters",
]


def log_buckets(
    start: float = 1e-6, factor: float = 2.0, count: int = 36
) -> tuple[float, ...]:
    """Geometric bucket upper bounds: ``start * factor**i`` for i < count."""
    if start <= 0 or factor <= 1.0 or count < 1:
        raise ValueError("need start > 0, factor > 1 and count >= 1")
    return tuple(start * factor**i for i in range(count))


#: 1 µs .. ~34 s in doubling buckets: spans localhost RPCs to WAN p99s.
DEFAULT_LATENCY_BOUNDS = log_buckets()


class Counter:
    """A monotonically increasing total.

    A request path may add to ``value`` in place (``counter.value += 1``)
    and so keep the count without a call.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount


class Gauge:
    """An instantaneous value; optionally backed by a sampling callable.

    A settable gauge's ``level`` may also be moved in place
    (``gauge.level += 1``): a request path keeps a gauge that way without
    a call.
    """

    __slots__ = ("name", "level", "_fn")

    def __init__(self, name: str, fn: Callable[[], float] | None = None) -> None:
        self.name = name
        self.level = 0.0
        self._fn = fn

    @property
    def value(self) -> float:
        return float(self._fn()) if self._fn is not None else self.level

    def set(self, value: float) -> None:
        self._require_settable()
        self.level = value

    def inc(self, amount: float = 1.0) -> None:
        self._require_settable()
        self.level += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def _require_settable(self) -> None:
        if self._fn is not None:
            raise ValueError(f"gauge {self.name} is callable-backed")


class Histogram:
    """Fixed log-bucket histogram with interpolated quantile estimates.

    ``bounds`` are the inclusive upper edges of the finite buckets; one
    implicit overflow bucket catches everything beyond the last edge.
    Tracked ``min``/``max`` clamp the interpolation so quantiles never
    stray outside the observed range.

    An observation may carry an *exemplar* — an identifier (in practice a
    trace id) linking the measurement to its trace.  The histogram keeps
    only the :data:`EXEMPLAR_LIMIT` slowest exemplars, so the snapshot of
    a hot histogram answers "which traces explain the tail" at O(1) cost.
    """

    #: Slowest (value, exemplar) pairs retained per histogram.
    EXEMPLAR_LIMIT = 8

    __slots__ = (
        "name", "bounds", "counts", "count", "sum", "min", "max", "exemplars"
    )

    def __init__(
        self, name: str, bounds: Sequence[float] | None = None
    ) -> None:
        self.name = name
        self.bounds = tuple(bounds) if bounds is not None else DEFAULT_LATENCY_BOUNDS
        if list(self.bounds) != sorted(self.bounds) or len(self.bounds) < 1:
            raise ValueError("histogram bounds must be sorted and non-empty")
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.exemplars: list[tuple[float, str]] = []

    def observe(self, value: float, exemplar: str | None = None) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if exemplar is not None:
            self._keep_exemplar(value, str(exemplar))

    def _keep_exemplar(self, value: float, exemplar: str) -> None:
        keep = self.exemplars
        if len(keep) < self.EXEMPLAR_LIMIT:
            keep.append((value, exemplar))
            keep.sort(reverse=True)
        elif value > keep[-1][0]:
            keep[-1] = (value, exemplar)
            keep.sort(reverse=True)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated value at quantile ``q`` (0 <= q <= 1); 0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if not self.count:
            return 0.0
        return _bucket_quantile(
            self.bounds, self.counts, self.count, self.min, self.max, q
        )

    def merge(self, other: "Histogram") -> None:
        """Add another histogram's observations (bounds must match)."""
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        for value, exemplar in other.exemplars:
            self._keep_exemplar(value, exemplar)

    def snapshot(self) -> dict:
        """JSON-safe form, including precomputed headline quantiles."""
        result = {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "quantiles": {
                "p50": self.quantile(0.50),
                "p90": self.quantile(0.90),
                "p99": self.quantile(0.99),
            },
        }
        if self.exemplars:
            result["exemplars"] = [
                {"value": value, "trace_id": exemplar}
                for value, exemplar in self.exemplars
            ]
        return result


def _bucket_quantile(
    bounds: Sequence[float],
    counts: Sequence[int],
    total: int,
    observed_min: float,
    observed_max: float,
    q: float,
) -> float:
    target = q * total
    cumulative = 0.0
    for index, count in enumerate(counts):
        if not count:
            continue
        if cumulative + count >= target:
            lower = bounds[index - 1] if index > 0 else 0.0
            upper = bounds[index] if index < len(bounds) else observed_max
            fraction = (target - cumulative) / count
            estimate = lower + (upper - lower) * max(0.0, min(1.0, fraction))
            return min(max(estimate, observed_min), observed_max)
        cumulative += count
    return observed_max


def histogram_quantile(snapshot: dict, q: float) -> float:
    """Quantile estimate from a histogram *snapshot* (e.g. off the wire)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    total = snapshot["count"]
    if not total:
        return 0.0
    return _bucket_quantile(
        snapshot["bounds"],
        snapshot["counts"],
        total,
        snapshot["min"],
        snapshot["max"],
        q,
    )


class MetricsRegistry:
    """Get-or-create registry of named metrics with a JSON-safe snapshot."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            self._check_fresh(name)
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str, fn: Callable[[], float] | None = None) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            self._check_fresh(name)
            gauge = self._gauges[name] = Gauge(name, fn)
        return gauge

    def histogram(
        self, name: str, bounds: Sequence[float] | None = None
    ) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            self._check_fresh(name)
            histogram = self._histograms[name] = Histogram(name, bounds)
        return histogram

    def _check_fresh(self, name: str) -> None:
        if (
            name in self._counters
            or name in self._gauges
            or name in self._histograms
        ):
            raise ValueError(f"metric {name!r} already registered as another type")

    def snapshot(self) -> dict:
        """JSON-safe view of every registered metric (gauges sampled now)."""
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "gauges": {
                name: gauge.value for name, gauge in sorted(self._gauges.items())
            },
            "histograms": {
                name: histogram.snapshot()
                for name, histogram in sorted(self._histograms.items())
            },
        }


def merge_snapshots(*snapshots: dict) -> dict:
    """Sum registry snapshots (fleet aggregation of STATS payloads).

    Variadic over any number of per-node snapshots — ``repro stats`` with
    several targets merges the whole fleet in one call.  Counters, gauges,
    and histogram buckets add; histogram min/max widen; exemplars keep the
    slowest few across the fleet.  Metrics present in only some snapshots
    carry over unchanged.
    """
    merged: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    for kind in ("counters", "gauges"):
        names = {name for snap in snapshots for name in snap.get(kind, {})}
        for name in sorted(names):
            merged[kind][name] = sum(
                snap.get(kind, {}).get(name, 0.0) for snap in snapshots
            )
    names = {name for snap in snapshots for name in snap.get("histograms", {})}
    for name in sorted(names):
        parts = [
            snap["histograms"][name]
            for snap in snapshots
            if name in snap.get("histograms", {})
        ]
        merged["histograms"][name] = _merge_histogram_parts(name, parts)
    return merged


def per_app_counters(snapshot: dict, base: str) -> dict[str, float]:
    """Extract ``{app_id: value}`` for counters named ``<base>.<app_id>``.

    The registry keeps flat string names, so per-application families
    (``server.app_requests.bookstore`` …) are encoded as a dotted suffix;
    this peels the family back into a mapping.  The app id is the whole
    remainder after ``base + "."``, so ids containing dots round-trip.
    """
    prefix = base + "."
    return {
        name[len(prefix):]: value
        for name, value in snapshot.get("counters", {}).items()
        if name.startswith(prefix)
    }


def _merge_histogram_parts(name: str, parts: list[dict]) -> dict:
    if len(parts) == 1:
        return dict(parts[0])
    bounds = parts[0]["bounds"]
    for part in parts[1:]:
        if part["bounds"] != bounds:
            raise ValueError(f"histogram {name!r} bounds differ across snapshots")
    populated = [part for part in parts if part["count"]]
    combined = {
        "count": sum(part["count"] for part in parts),
        "sum": sum(part["sum"] for part in parts),
        "min": min(part["min"] for part in populated) if populated else 0.0,
        "max": max(part["max"] for part in parts),
        "bounds": list(bounds),
        "counts": [sum(column) for column in zip(*(p["counts"] for p in parts))],
    }
    combined["quantiles"] = {
        "p50": histogram_quantile(combined, 0.50),
        "p90": histogram_quantile(combined, 0.90),
        "p99": histogram_quantile(combined, 0.99),
    }
    exemplars = sorted(
        (
            (entry["value"], entry["trace_id"])
            for part in parts
            for entry in part.get("exemplars", ())
        ),
        reverse=True,
    )[: Histogram.EXEMPLAR_LIMIT]
    if exemplars:
        combined["exemplars"] = [
            {"value": value, "trace_id": trace_id}
            for value, trace_id in exemplars
        ]
    return combined
