"""Unified metrics: one export path over the engine's stats dataclasses.

The engine grew one ad-hoc counter dataclass per subsystem --
``SearchStats`` (search), ``CacheStats`` (evaluation memo + persistent
store counters), ``StateStats`` (snapshots), ``QueryStats`` (ORM
planner), ``StoreStats`` (on-disk store file) -- each with its own
``as_dict``.  :class:`MetricsRegistry` wraps any number of them
(live references, so a snapshot always reflects the current values)
behind a single schema-versioned ``snapshot()`` export, alongside
free-standing counters/gauges and per-phase wall-time histograms.

Snapshots are plain JSON-able dicts; :func:`merge_snapshots` folds two of
them (summing counters and numeric stats fields, or-ing booleans,
combining histograms), which is how a benchmark's repeated runs report
one total.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional

#: Bump when the snapshot dict changes shape.
METRICS_SCHEMA_VERSION = 1


def stats_sources() -> Dict[str, type]:
    """The stats dataclasses the registry is expected to wrap.

    A function (not a module constant) so importing :mod:`repro.obs`
    never drags the whole engine in; the completeness tests iterate this
    to lock every class into the snapshot export.
    """

    from repro.activerecord.database import QueryStats
    from repro.synth.cache import CacheStats
    from repro.synth.search import SearchStats
    from repro.synth.state import StateStats
    from repro.synth.store import StoreStats

    return {
        "search": SearchStats,
        "cache": CacheStats,
        "state": StateStats,
        "query": QueryStats,
        "store": StoreStats,
    }


class Counter:
    """Monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Last-write-wins numeric value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Streaming summary of observed durations (seconds)."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def as_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total_s": self.total,
            "min_s": self.min,
            "max_s": self.max,
            "mean_s": (self.total / self.count) if self.count else None,
        }


class MetricsRegistry:
    """Counters, gauges, phase histograms and attached stats dataclasses."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._stats: Dict[str, Any] = {}

    # ----------------------------------------------------------- instruments

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    def observe_phase(self, phase: str, seconds: float) -> None:
        """Record one wall-time observation for a pipeline phase."""

        self.histogram(phase).observe(seconds)

    def attach_stats(self, prefix: str, stats: Any) -> None:
        """Export a stats dataclass (live reference) under ``prefix``.

        The snapshot enumerates ``dataclasses.fields`` directly rather
        than trusting ``as_dict`` so a field added to a stats class can
        never silently drop out of the export (the completeness tests
        additionally cross-check ``as_dict`` agreement).
        """

        if not dataclasses.is_dataclass(stats):
            raise TypeError(f"attach_stats needs a dataclass, got {type(stats)!r}")
        self._stats[prefix] = stats

    # ---------------------------------------------------------------- export

    def snapshot(self) -> Dict[str, Any]:
        """One JSON-able dict of everything the registry knows."""

        return {
            "schema_version": METRICS_SCHEMA_VERSION,
            "counters": {
                name: counter.value for name, counter in sorted(self._counters.items())
            },
            "gauges": {
                name: gauge.value for name, gauge in sorted(self._gauges.items())
            },
            "phases": {
                name: hist.as_dict()
                for name, hist in sorted(self._histograms.items())
            },
            "stats": {
                prefix: {
                    field.name: getattr(stats, field.name)
                    for field in dataclasses.fields(stats)
                }
                for prefix, stats in sorted(self._stats.items())
            },
        }

    def as_dict(self) -> Dict[str, Any]:
        return self.snapshot()


def _merge_value(a: Any, b: Any) -> Any:
    if isinstance(a, bool) or isinstance(b, bool):
        return bool(a) or bool(b)
    return a + b


def _merge_histogram(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    count = a["count"] + b["count"]
    total = a["total_s"] + b["total_s"]
    mins = [m for m in (a["min_s"], b["min_s"]) if m is not None]
    maxs = [m for m in (a["max_s"], b["max_s"]) if m is not None]
    return {
        "count": count,
        "total_s": total,
        "min_s": min(mins) if mins else None,
        "max_s": max(maxs) if maxs else None,
        "mean_s": (total / count) if count else None,
    }


def merge_snapshots(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    """Fold two snapshots: counters/stats sum (bools or), histograms combine.

    Gauges are last-write-wins, matching their in-process semantics:
    ``b``'s value survives where both define one.
    """

    merged: Dict[str, Any] = {"schema_version": METRICS_SCHEMA_VERSION}
    merged["counters"] = dict(a.get("counters", {}))
    for name, value in b.get("counters", {}).items():
        merged["counters"][name] = _merge_value(merged["counters"].get(name, 0), value)
    merged["gauges"] = {**a.get("gauges", {}), **b.get("gauges", {})}
    merged["phases"] = dict(a.get("phases", {}))
    for name, hist in b.get("phases", {}).items():
        if name in merged["phases"]:
            merged["phases"][name] = _merge_histogram(merged["phases"][name], hist)
        else:
            merged["phases"][name] = dict(hist)
    merged["stats"] = {
        prefix: dict(fields) for prefix, fields in a.get("stats", {}).items()
    }
    for prefix, fields in b.get("stats", {}).items():
        section = merged["stats"].setdefault(prefix, {})
        for name, value in fields.items():
            section[name] = (
                _merge_value(section[name], value) if name in section else value
            )
    return merged
