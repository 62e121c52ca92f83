"""Unified observability for the serving stack: produce *and* consume.

Two process-wide singletons serve every layer:

* :data:`REGISTRY` — cumulative counters/gauges/histograms with
  Prometheus-text and JSON export (:mod:`repro.obs.metrics`);
* :data:`TRACER` — flush-path spans stitched across the asyncio loop
  and the flush worker thread (:mod:`repro.obs.trace`).

:func:`timed_span` is the instrumentation idiom the layers share: one
context manager that both opens a trace span and observes the block's
duration into a latency histogram, so the trace tree and the metric
series always agree on what was measured.

On top of that substrate sits the consumption layer:

* :mod:`repro.obs.health` — declarative SLOs (latency percentiles,
  error budgets, the stream-overload signal) judged over rolling
  registry windows by a :class:`HealthMonitor`;
* :mod:`repro.obs.server` — the live ``/metrics`` + ``/health`` +
  ``/traces`` HTTP endpoint (:class:`ObsServer`), embeddable via
  ``StreamConfig(serve_port=...)``;
* :func:`report` — one aggregate: the health verdict plus each passed
  layer's ``report()``.

``python -m repro.obs summarize|serve`` is the CLI
(:mod:`repro.obs.cli`).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator, Mapping

from repro.obs import trace
from repro.obs.health import (
    DEFAULT_SLOS,
    ErrorRateSlo,
    HealthMonitor,
    HealthReport,
    LatencySlo,
    OverloadSlo,
    Slo,
    SloStatus,
    get_monitor,
)
from repro.obs.metrics import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS_S,
    REGISTRY,
    MetricsRegistry,
    get_registry,
)
from repro.obs.server import ObsServer
from repro.obs.trace import (
    TRACER,
    Span,
    SpanContext,
    Tracer,
    get_tracer,
)

__all__ = [
    "COUNT_BUCKETS",
    "DEFAULT_SLOS",
    "LATENCY_BUCKETS_S",
    "REGISTRY",
    "TRACER",
    "ErrorRateSlo",
    "HealthMonitor",
    "HealthReport",
    "LatencySlo",
    "MetricsRegistry",
    "ObsServer",
    "OverloadSlo",
    "Slo",
    "SloStatus",
    "Span",
    "SpanContext",
    "Tracer",
    "get_monitor",
    "get_registry",
    "get_tracer",
    "report",
    "timed_span",
    "trace",
]


def report(*layers: Any, monitor: HealthMonitor | None = None) -> dict[str, Any]:
    """One aggregate view: the health verdict plus each layer's report.

    Every serving layer exposes ``report()`` (engine, service, stream,
    loc); pass any of them and this walks them uniformly alongside the
    monitor's current :class:`HealthReport` (a fresh sample is taken
    first, so the verdict reflects now, not the last tick)::

        obs.report(engine, service, streaming, loc_service)
    """
    active = monitor if monitor is not None else get_monitor()
    return {
        "generated_at_s": time.time(),
        "health": active.evaluate(sample_now=True).to_dict(),
        "layers": [layer.report() for layer in layers],
    }


@contextmanager
def timed_span(
    span_name: str,
    metric_name: str | None = None,
    metric_labels: Mapping[str, object] | None = None,
    parent: SpanContext | None = trace._UNSET,
    **attrs: Any,
) -> Iterator[Any]:
    """Open a trace span and time the block into a latency histogram.

    The span (named ``span_name``, carrying ``attrs``) and the
    histogram observation (``metric_name`` with ``metric_labels``)
    cover exactly the same interval; the observation lands even when
    the block raises, so error latency is not silently dropped.
    ``metric_name=None`` traces without publishing a metric.
    """
    start_s = time.perf_counter()
    try:
        with TRACER.span(span_name, parent, **attrs) as span:
            yield span
    finally:
        if metric_name is not None:
            REGISTRY.observe(
                metric_name,
                time.perf_counter() - start_s,
                **dict(metric_labels or {}),
            )
