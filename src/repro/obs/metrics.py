"""Thread-safe metrics registry: counters, gauges, histograms.

The serving stack (engine → service → stream → loc) previously exposed
only last-call snapshot dataclasses (``ServiceStats``,
``StreamStats``) — overwritten per call, racy under concurrent
callers, and never exported.  This registry is the cumulative,
process-wide complement: every layer publishes named series
(``engine.solve_s``, ``stream.queue_wait_s``, ...) with low-cardinality
labels (layer, plan, method, stage), and the whole registry renders as
Prometheus text format or a JSON snapshot with zero dependencies.

Design constraints, in order:

* **hot-path cheap** — one lock acquisition per update, fixed bucket
  search by bisection, no allocation on the repeat path;
* **thread-safe by construction** — all registry state is written under
  one registry lock (``# guarded-by:`` discipline, REP002-checked);
  solver worker threads, the asyncio loop, and direct callers may all
  publish concurrently;
* **bounded** — label cardinality is the caller's contract (plans and
  stages, never link ids), bucket layouts are fixed at first observe.

Histograms default to :data:`LATENCY_BUCKETS_S` — half-decade
log-spaced bounds from 10 µs to 100 s, wide enough for a kernel stage
and a whole fleet tick alike; count-valued histograms (flush sizes,
iteration counts) pass :data:`COUNT_BUCKETS` instead.
"""

from __future__ import annotations

import json
import threading
import time
from bisect import bisect_left
from types import TracebackType
from typing import Iterator, Mapping, Sequence

LATENCY_BUCKETS_S: tuple[float, ...] = tuple(
    10.0 ** (k / 2.0) for k in range(-10, 5)
)
"""Default histogram bounds: half-decades from 1e-5 s to 1e2 s."""

COUNT_BUCKETS: tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
)
"""Histogram bounds for count-valued series (flush sizes, iterations)."""

_KINDS = ("counter", "gauge", "histogram")

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, object]) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _prometheus_name(name: str) -> str:
    """A dotted registry name as a Prometheus-legal metric name."""
    sanitized = "".join(
        c if c.isalnum() or c == "_" else "_" for c in name.replace(".", "_")
    )
    return f"repro_{sanitized}"


def _format_bound(bound: float) -> str:
    return f"{bound:.10g}"


class _Histogram:
    """One labeled histogram series: bucket counts + sum/count/max."""

    __slots__ = ("bounds", "bucket_counts", "total", "count", "max")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # last = +Inf overflow
        self.total = 0.0
        self.count = 0
        self.max = 0.0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1
        if value > self.max:
            self.max = value

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate (Prometheus-style)."""
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.bucket_counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i] if i < len(self.bounds) else self.max
                within = (rank - cumulative) / bucket_count
                return lo + (hi - lo) * min(max(within, 0.0), 1.0)
            cumulative += bucket_count
        return self.max


class _Family:
    """All series of one metric name (one per distinct label set)."""

    __slots__ = ("kind", "help", "values", "histograms", "bounds")

    def __init__(
        self, kind: str, help_text: str, bounds: tuple[float, ...]
    ) -> None:
        self.kind = kind
        self.help = help_text
        self.values: dict[_LabelKey, float] = {}
        self.histograms: dict[_LabelKey, _Histogram] = {}
        self.bounds = bounds


class _TimerHandle:
    """Context manager observing its own wall duration into a histogram."""

    __slots__ = ("_registry", "_name", "_labels", "_start_s")

    def __init__(
        self, registry: "MetricsRegistry", name: str, labels: dict[str, object]
    ) -> None:
        self._registry = registry
        self._name = name
        self._labels = labels
        self._start_s = 0.0

    def __enter__(self) -> "_TimerHandle":
        self._start_s = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self._registry.observe(
            self._name, time.perf_counter() - self._start_s, **self._labels
        )


class MetricsRegistry:
    """Process-wide named metric series, safe under concurrent writers.

    Names are dotted and unit-suffixed by convention
    (``stream.queue_wait_s``); labels are keyword arguments with
    low-cardinality values.  A name's kind (counter / gauge /
    histogram) is fixed by its first use; mixing kinds raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}  # guarded-by: self._lock

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def inc(self, name: str, value: float = 1.0, **labels: object) -> None:
        """Add ``value`` (>= 0) to the counter ``name``."""
        if value < 0:
            raise ValueError(f"counter {name!r} cannot decrease (got {value})")
        key = _label_key(labels)
        with self._lock:
            self._families[name] = family = self._family(name, "counter")
            family.values[key] = family.values.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        """Set the gauge ``name`` to ``value``."""
        key = _label_key(labels)
        with self._lock:
            self._families[name] = family = self._family(name, "gauge")
            family.values[key] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        buckets: Sequence[float] | None = None,
        **labels: object,
    ) -> None:
        """Record ``value`` into the histogram ``name``.

        ``buckets`` fixes the bucket bounds on the histogram's first
        observation (default :data:`LATENCY_BUCKETS_S`); later calls
        may omit it.
        """
        key = _label_key(labels)
        with self._lock:
            self._families[name] = family = self._family(
                name,
                "histogram",
                bounds=tuple(buckets) if buckets is not None else None,
            )
            histogram = family.histograms.get(key)
            if histogram is None:
                histogram = _Histogram(family.bounds)
                family.histograms[key] = histogram
            histogram.observe(value)

    def time(self, name: str, **labels: object) -> _TimerHandle:
        """Context manager observing the block's duration into ``name``."""
        return _TimerHandle(self, name, dict(labels))

    def reset(self) -> None:
        """Drop every series (tests and benchmark phase boundaries)."""
        with self._lock:
            self._families = {}

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def value(self, name: str, **labels: object) -> float:
        """Current value of a counter/gauge series (0.0 when absent)."""
        key = _label_key(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                return 0.0
            return family.values.get(key, 0.0)

    def snapshot(
        self, prefix: str | None = None, include_buckets: bool = False
    ) -> dict[str, object]:
        """JSON-able view of every family (optionally name-filtered).

        Histogram series carry ``count``/``sum``/``max`` plus
        bucket-estimated ``p50``/``p95`` — the same numbers the trace
        CLI tabulates, so ``report()`` hooks and dashboards agree.
        ``include_buckets`` adds each histogram series' raw layout
        (``bounds`` + per-bucket ``bucket_counts``, last = overflow) —
        the health monitor diffs those between samples to compute
        quantiles over a rolling window instead of process lifetime.
        """
        out: dict[str, object] = {}
        with self._lock:
            for name, family in sorted(self._families.items()):
                if prefix is not None and not name.startswith(prefix):
                    continue
                series: list[dict[str, object]] = []
                if family.kind == "histogram":
                    for key, histogram in sorted(family.histograms.items()):
                        entry: dict[str, object] = {
                            "labels": dict(key),
                            "count": histogram.count,
                            "sum": histogram.total,
                            "max": histogram.max,
                            "p50": histogram.quantile(0.50),
                            "p95": histogram.quantile(0.95),
                        }
                        if include_buckets:
                            entry["bounds"] = list(histogram.bounds)
                            entry["bucket_counts"] = list(
                                histogram.bucket_counts
                            )
                        series.append(entry)
                else:
                    for key, value in sorted(family.values.items()):
                        series.append({"labels": dict(key), "value": value})
                out[name] = {
                    "kind": family.kind,
                    "help": family.help,
                    "series": series,
                }
        return out

    def render_json(self, prefix: str | None = None) -> str:
        """The snapshot as an indented JSON document."""
        return json.dumps(self.snapshot(prefix), indent=2, sort_keys=True)

    def render_prometheus(self) -> str:
        """Every family in the Prometheus text exposition format."""
        lines: list[str] = []
        with self._lock:
            for name, family in sorted(self._families.items()):
                metric = _prometheus_name(name)
                if family.help:
                    lines.append(f"# HELP {metric} {family.help}")
                lines.append(f"# TYPE {metric} {family.kind}")
                if family.kind == "histogram":
                    for key, histogram in sorted(family.histograms.items()):
                        lines.extend(
                            self._prometheus_histogram(metric, key, histogram)
                        )
                else:
                    for key, value in sorted(family.values.items()):
                        lines.append(
                            f"{metric}{_prometheus_labels(key)} {value:.10g}"
                        )
        return "\n".join(lines) + ("\n" if lines else "")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _family(
        self,
        name: str,
        kind: str,
        bounds: tuple[float, ...] | None = None,
    ) -> _Family:
        """The (possibly new) family for ``name``.  Lock held.

        Pure get-or-build: the caller stores the result back into
        ``self._families`` inside its own ``with self._lock:`` block so
        the write stays lexically under the guard (REP002).
        """
        assert kind in _KINDS
        family = self._families.get(name)
        if family is None:
            return _Family(kind, "", bounds or LATENCY_BUCKETS_S)
        if family.kind != kind:
            raise ValueError(
                f"metric {name!r} is a {family.kind}, not a {kind}"
            )
        return family

    @staticmethod
    def _prometheus_histogram(
        metric: str, key: _LabelKey, histogram: _Histogram
    ) -> Iterator[str]:
        cumulative = 0
        # Deliberately non-strict: bucket_counts has one extra entry
        # (the +Inf overflow bucket), emitted separately below.
        for bound, bucket_count in zip(
            histogram.bounds, histogram.bucket_counts, strict=False
        ):
            cumulative += bucket_count
            labels = _prometheus_labels(
                key + (("le", _format_bound(bound)),)
            )
            yield f"{metric}_bucket{labels} {cumulative}"
        labels = _prometheus_labels(key + (("le", "+Inf"),))
        yield f"{metric}_bucket{labels} {histogram.count}"
        plain = _prometheus_labels(key)
        yield f"{metric}_sum{plain} {histogram.total:.10g}"
        yield f"{metric}_count{plain} {histogram.count}"


def _prometheus_labels(key: _LabelKey) -> str:
    if not key:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in key)
    return "{" + body + "}"


REGISTRY = MetricsRegistry()
"""The process-wide default registry every serving layer publishes to."""


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return REGISTRY
