"""A batch-first ranging service over the batched ToF engine.

:class:`RangingService` is the serving-layer facade: callers submit a
batch of per-link measurement requests (band products, as produced by
the CSI front end), the service groups them by band plan, shards each
group to bound per-solve memory, solves every shard with
:func:`solve_isolated` (shared with the streaming front end's sweep
flushes: the engine names the links it cannot solve, the layer answers
each with its reason, and the rest are solved in one more
:class:`~repro.core.batch.BatchTofEngine` call), and returns per-link
:class:`~repro.core.tof.TofEstimate` responses in request order.

Requests on the same band plan amortize one cached NDFT operator and
one batched sparse solve; requests on different plans simply land in
different shards.  The per-submission :class:`ServiceStats` expose the
shard layout and throughput.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence, TypeVar

import numpy as np

from repro.core.batch import BatchTofEngine, UnsolvableLinks
from repro.core.cfo import LinkCalibration
from repro.core.tof import TofEstimate, TofEstimatorConfig
from repro.obs import REGISTRY, timed_span

def plan_label(signature: object) -> str:
    """A short stable label for a band-plan signature, fit for metrics.

    Plan signatures embed raw frequency bytes — unbounded and unprintable
    as metric label values.  This digests one to ``plan-xxxxxx`` (CRC32
    of the signature's repr): stable within a process run, bounded
    cardinality (one value per distinct plan), readable in exports and
    trace attributes.
    """
    digest = zlib.crc32(repr(signature).encode()) & 0xFFFFFF
    return f"plan-{digest:06x}"


ISOLATED_LINK_ERRORS = (ValueError, np.linalg.LinAlgError)
"""Exceptions a single degenerate link may raise out of a batched solve.

:func:`solve_isolated` (the service's shards, the stream's sweep
groups) and the loc layer's position solves catch them, so widening this
tuple for a new failure type fixes every layer at once.  ``LinAlgError``
is listed explicitly because the hybrid path's least-squares refits can
raise it on degenerate products, and on older NumPy it is not a
``ValueError`` subclass.
"""

R = TypeVar("R", bound="LinkRequest")


def solve_isolated(
    requests: Sequence[R],
    solve: Callable[[list[R]], Sequence[TofEstimate]],
    retries_metric: str,
    label: str,
) -> list[RangingResponse]:
    """One response per request, in order; a link's failure stays its own.

    ``solve`` is one batched engine call, first over every request.
    Links the engine names (:class:`~repro.core.batch.UnsolvableLinks`,
    raised before any kernel runs) are answered with their reasons
    under their own ids, and the rest are solved the same way in one
    more call.  Any other :data:`ISOLATED_LINK_ERRORS` failure, one no
    screen foresaw, solves the links one at a time (counted once in
    ``retries_metric{plan=label}``); a lone link's failure becomes its
    error.  Other exceptions propagate.
    """
    requests = list(requests)
    if not requests:
        return []
    try:
        estimates = solve(requests)
    except UnsolvableLinks as exc:
        rest = [r for i, r in enumerate(requests) if i not in exc.reasons]
        solved = iter(solve_isolated(rest, solve, retries_metric, label))
        return [
            RangingResponse(link_id=r.link_id, estimate=None, error=exc.reasons[i])
            if i in exc.reasons
            else next(solved)
            for i, r in enumerate(requests)
        ]
    except ISOLATED_LINK_ERRORS as exc:
        if len(requests) == 1:
            error = str(exc) or type(exc).__name__
            return [RangingResponse(requests[0].link_id, estimate=None, error=error)]
        REGISTRY.inc(retries_metric, plan=label)
        return [
            response
            for request in requests
            for response in solve_isolated([request], solve, retries_metric, label)
        ]
    return [
        RangingResponse(link_id=request.link_id, estimate=estimate)
        for request, estimate in zip(requests, estimates, strict=True)
    ]


@dataclass(frozen=True)
class LinkRequest:
    """What every per-link serving request shares.

    The product-level :class:`RangingRequest` and the sweep-level
    :class:`~repro.stream.service.SweepRequest` used to duplicate this
    envelope (and its validation) independently; both are now thin
    subclasses.  The base carries:

    Attributes:
        link_id: Caller's identifier, echoed in the response.
        metadata: Opaque caller payload, ignored by every serving
            layer and echoed nowhere — a place for request correlation
            ids and the like.
    """

    link_id: str
    metadata: Any = field(default=None, kw_only=True)

    def __post_init__(self) -> None:
        if not isinstance(self.link_id, str) or not self.link_id:
            raise ValueError(
                f"link_id must be a non-empty string, got {self.link_id!r}"
            )

    def _check_calibration(self, calibration: object) -> None:
        """Reject, at construction, a calibration the engine cannot apply
        (in a batched solve it would fail every flush-mate)."""
        if calibration is not None and not isinstance(calibration, LinkCalibration):
            raise TypeError(
                f"request {self.link_id!r}: calibration must be a "
                f"LinkCalibration or None, got {type(calibration).__name__}"
            )

    def plan_signature(self) -> object:
        """A hashable key of the request's solve-grouping identity.

        Requests sharing a signature stack into the same batched engine
        calls; different request kinds never share one (each subclass
        namespaces its own).
        """
        raise NotImplementedError


@dataclass(frozen=True)
class RangingRequest(LinkRequest):
    """One link's measurement, ready for inversion.

    Attributes:
        frequencies_hz: Band center frequencies of the measurement.
        products: Averaged reciprocity products, one per frequency.
        exponent: Delay-axis scale of the products (2 for the
            reciprocity square, 8 for the 2.4 GHz quirk workaround).
        calibration: Per-link constant-bias calibration (identity when
            omitted).
    """

    frequencies_hz: np.ndarray
    products: np.ndarray
    exponent: int = 2
    calibration: LinkCalibration | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        self._check_calibration(self.calibration)
        if self.frequencies_hz is None or self.products is None:
            raise ValueError(
                f"request {self.link_id!r}: frequencies and products "
                "are required"
            )
        freqs = np.asarray(self.frequencies_hz, dtype=float)
        products = np.asarray(self.products, dtype=complex)
        if freqs.ndim != 1 or products.shape != freqs.shape:
            raise ValueError(
                f"request {self.link_id!r}: products shape {products.shape} "
                f"does not match frequencies {freqs.shape}"
            )
        object.__setattr__(self, "frequencies_hz", freqs)
        object.__setattr__(self, "products", products)

    def plan_signature(self) -> tuple[bytes, int]:
        """Band-plan identity: requests sharing it solve in one stack."""
        return (self.frequencies_hz.tobytes(), self.exponent)


@dataclass(frozen=True)
class RangingResponse:
    """The service's answer for one request.

    ``estimate`` is ``None`` when this link's measurement was unusable;
    ``error`` then says why.  A link the engine names as unsolvable
    carries the engine's reason for that link (non-finite products, or
    no signal power as from a disassociated radio's all-zero row); a
    link that failed alone inside the solve carries the estimator's
    message.  One dead link never poisons the rest of its batch
    (:func:`solve_isolated`).
    """

    link_id: str
    estimate: TofEstimate | None
    error: str | None = None

    @property
    def ok(self) -> bool:
        """Whether the link produced an estimate."""
        return self.estimate is not None

    @property
    def distance_m(self) -> float:
        """Calibrated one-way distance."""
        if self.estimate is None:
            raise ValueError(f"link {self.link_id!r} failed: {self.error}")
        return self.estimate.distance_m


@dataclass(frozen=True)
class ServiceStats:
    """Telemetry for one ``submit``/``submit_grouped`` call.

    Delivered per call via the ``stats_out`` argument (race-free under
    concurrent callers); the cumulative ``service.*`` registry series
    fold every call in.
    """

    n_requests: int
    n_plans: int
    n_shards: int
    elapsed_s: float
    n_failed: int = 0

    @property
    def links_per_s(self) -> float:
        """Throughput of the submission."""
        return self.n_requests / self.elapsed_s if self.elapsed_s > 0 else 0.0


class RangingService:
    """Accepts ranging request batches and serves ToF estimates.

    Args:
        config: Estimator settings shared by every request.
        max_shard_links: Upper bound on links per batched solve.  Bounds
            the working set of one GEMM (the solver state is
            ``n_taus × shard`` complex) while keeping shards large
            enough to amortize the cached operators.
        engine: Injectable engine (tests swap in instrumented ones).
    """

    def __init__(
        self,
        config: TofEstimatorConfig | None = None,
        max_shard_links: int = 256,
        engine: BatchTofEngine | None = None,
    ) -> None:
        if max_shard_links < 1:
            raise ValueError(f"shards need at least one link, got {max_shard_links}")
        self.engine = engine or BatchTofEngine(config)
        self.max_shard_links = max_shard_links

    @staticmethod
    def plan_key(request: RangingRequest) -> object:
        """The band-plan identity of a request.

        Requests sharing a key stack into the same batched solves; the
        streaming layer partitions its flushes into plan groups on it
        too.  The rule itself lives on the request
        (:meth:`LinkRequest.plan_signature`), so new request kinds
        carry their own grouping identity.
        """
        return request.plan_signature()

    def plan_groups(
        self, requests: Sequence[RangingRequest]
    ) -> list[list[int]]:
        """Indices grouped by band plan, in first-seen order.

        Each group is an independently solvable unit: no estimate
        depends on requests outside its group, so callers may solve
        groups in any order, or concurrently.
        """
        by_plan: dict[object, list[int]] = {}
        for idx, request in enumerate(requests):
            by_plan.setdefault(self.plan_key(request), []).append(idx)
        return list(by_plan.values())

    def submit(
        self,
        requests: Sequence[RangingRequest],
        stats_out: list[ServiceStats] | None = None,
    ) -> list[RangingResponse]:
        """Estimate ToF for every request, in request order.

        Requests sharing (frequencies, exponent) are stacked into the
        same batched solves; sharding splits oversized stacks.

        ``stats_out`` receives this call's own :class:`ServiceStats`
        (appended).

        Degenerate submissions are first-class, not incidental: an
        empty batch returns ``[]`` with a well-formed zero-shard
        :class:`ServiceStats` (``links_per_s == 0``), and a single
        request runs as its own one-link shard with ``n_plans ==
        n_shards == 1`` — the streaming front end leans on both when a
        coalescing window closes nearly or exactly empty.
        """
        start = time.perf_counter()
        requests = list(requests)
        groups = self.plan_groups(requests)

        responses: list[RangingResponse | None] = [None] * len(requests)
        n_shards = 0
        n_failed = 0
        with timed_span(
            "service.submit", "service.submit_s", n_requests=len(requests)
        ):
            for indices in groups:
                group_responses, shards, failed = self._solve_plan(
                    requests, indices
                )
                n_shards += shards
                n_failed += failed
                for i, response in zip(indices, group_responses, strict=True):
                    responses[i] = response

        stats = ServiceStats(
            n_requests=len(requests),
            n_plans=len(groups),
            n_shards=n_shards,
            elapsed_s=time.perf_counter() - start,
            n_failed=n_failed,
        )
        if stats_out is not None:
            stats_out.append(stats)
        self._publish_stats(stats)
        return responses

    def submit_grouped(
        self,
        requests: Sequence[RangingRequest],
        stats_out: list[ServiceStats] | None = None,
    ) -> list[RangingResponse]:
        """Solve one band-plan-uniform group of requests, in order.

        The streaming flush worker's entry point: every request must
        share one :meth:`plan_key` (mixed plans raise ``ValueError`` —
        callers partition with :meth:`plan_groups` first).  It touches
        no shared service state, so concurrent callers may call it on
        the same service without a lock; the engine underneath is
        thread-safe.  ``stats_out`` receives this call's own
        single-plan :class:`ServiceStats` (appended).
        """
        requests = list(requests)
        if not requests:
            return []
        key = self.plan_key(requests[0])
        for request in requests[1:]:
            if self.plan_key(request) != key:
                raise ValueError(
                    f"submit_grouped needs one band plan; request "
                    f"{request.link_id!r} differs from "
                    f"{requests[0].link_id!r} (partition with plan_groups)"
                )
        start = time.perf_counter()
        responses, n_shards, n_failed = self._solve_plan(
            requests, list(range(len(requests)))
        )
        stats = ServiceStats(
            n_requests=len(requests),
            n_plans=1,
            n_shards=n_shards,
            elapsed_s=time.perf_counter() - start,
            n_failed=n_failed,
        )
        if stats_out is not None:
            stats_out.append(stats)
        self._publish_stats(stats)
        return responses

    def _solve_plan(
        self, requests: Sequence[RangingRequest], indices: Sequence[int]
    ) -> tuple[list[RangingResponse], int, int]:
        """Sharded solve of one plan-uniform group; isolation per shard.

        Returns ``(responses in indices order, n_shards, n_failed)``.
        Pure with respect to the service: safe to run concurrently.
        """
        responses: list[RangingResponse] = []
        shard_starts = range(0, len(indices), self.max_shard_links)
        label = plan_label(self.plan_key(requests[indices[0]]))
        with timed_span(
            "service.plan_solve",
            "service.plan_solve_s",
            {"plan": label},
            plan=label,
            n_links=len(indices),
        ):
            for lo in shard_starts:
                shard = [requests[i] for i in indices[lo : lo + self.max_shard_links]]
                responses += solve_isolated(
                    shard, self._solve_shard, "service.isolated_retries_total", label
                )
        n_failed = sum(not response.ok for response in responses)
        return responses, len(shard_starts), n_failed

    def report(self) -> dict:
        """Observability snapshot: service config + series.

        Matches the shape of the other layers' ``report()`` hooks
        (``layer`` + ``metrics``), so aggregators — the ``/health``
        endpoint's :func:`repro.obs.report` — can walk all four layers
        uniformly.  Nests the engine's own report.  Per-call stats go
        to ``submit``'s ``stats_out``; the cumulative ``service.*``
        series are under ``metrics``.
        """
        return {
            "layer": "service",
            "max_shard_links": self.max_shard_links,
            "metrics": REGISTRY.snapshot(prefix="service."),
            "engine": self.engine.report(),
        }

    @staticmethod
    def _publish_stats(stats: ServiceStats) -> None:
        """Fold one call's :class:`ServiceStats` into the registry."""
        REGISTRY.inc("service.requests_total", stats.n_requests)
        if stats.n_failed:
            REGISTRY.inc("service.failed_total", stats.n_failed)
        REGISTRY.inc("service.shards_total", stats.n_shards)

    def _solve_shard(self, shard: list[RangingRequest]) -> list[TofEstimate]:
        """One batched engine call over the shard's stacked products."""
        first = shard[0]
        return self.engine.estimate_products_batch(
            first.frequencies_hz,
            np.vstack([request.products for request in shard]),
            exponent=first.exponent,
            calibrations=[
                request.calibration or LinkCalibration() for request in shard
            ],
        )
