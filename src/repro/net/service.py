"""A batch-first ranging service over the batched ToF engine.

:class:`RangingService` is the serving-layer facade: callers submit a
batch of per-link measurement requests (band products, as produced by
the CSI front end), the service groups them by band plan, shards each
group to bound per-solve memory, answers links whose products cannot be
solved (non-finite, or no signal power) with a named error, runs the
rest of every shard through one
:class:`~repro.core.batch.BatchTofEngine` call, and returns per-link
:class:`~repro.core.tof.TofEstimate` responses in request order.

Requests on the same band plan amortize one cached NDFT operator and
one batched sparse solve; requests on different plans simply land in
different shards.  The per-submission :class:`ServiceStats` expose the
shard layout and throughput.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import asdict, dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.core.batch import BatchTofEngine, unsolvable_reason
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

One definition for every layer that retries link by link (this service's
shards, the streaming front end's sweep flushes): when estimator
internals surface a new failure type for bad CSI, widening this tuple
fixes all of them at once.  The service answers the failures it can
foresee before solving (:func:`~repro.core.batch.unsolvable_reason`:
non-finite or powerless products), so for product requests this is the
backstop for the rest.  ``LinAlgError`` is listed explicitly because
the hybrid path's least-squares refits can raise it on degenerate
products, and on older NumPy it is not a ``ValueError`` subclass.
"""


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
    ``error`` then says why.  Products the service screens out before
    solving carry the screen's reason (non-finite products, or no
    signal power as from a disassociated radio's all-zero row); a link
    that failed inside the solve carries the estimator's message.  One
    dead link never poisons the rest of its batch.
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
    concurrent callers); ``RangingService.last_stats`` remains as a
    deprecated best-effort mirror of the most recent ``submit``.
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
        # Deprecated best-effort mirror of the latest submit()'s stats;
        # racy by construction under concurrent callers.  Use the
        # stats_out argument (per-call) or the service.* registry
        # series instead.
        self.last_stats: ServiceStats | None = None

    @staticmethod
    def plan_key(request: RangingRequest) -> object:
        """The band-plan identity of a request.

        Requests sharing a key stack into the same batched solves; the
        streaming flush pool keys its per-plan workers on it too.  The
        rule itself lives on the request
        (:meth:`LinkRequest.plan_signature`), so new request kinds
        carry their own grouping identity.
        """
        return request.plan_signature()

    def plan_groups(
        self, requests: Sequence[RangingRequest]
    ) -> list[list[int]]:
        """Indices grouped by band plan, in first-seen order.

        Each group is an independently solvable unit: no estimate
        depends on requests outside its group, so callers (the
        streaming flush pool) may solve groups concurrently and in any
        order.
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
        (appended) — the race-free channel; ``last_stats`` is only a
        deprecated best-effort mirror under concurrent callers.

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
        self.last_stats = stats
        return responses

    def submit_grouped(
        self,
        requests: Sequence[RangingRequest],
        stats_out: list[ServiceStats] | None = None,
    ) -> list[RangingResponse]:
        """Solve one band-plan-uniform group of requests, in order.

        The flush pool's entry point: every request must share one
        :meth:`plan_key` (mixed plans raise ``ValueError`` — callers
        partition with :meth:`plan_groups` first).  Unlike
        :meth:`submit`, this method touches no shared service state
        (``last_stats`` stays untouched), so concurrent per-plan
        workers may call it on the same service without a lock; the
        engine underneath is thread-safe.  ``stats_out`` receives this
        call's own single-plan :class:`ServiceStats` (appended).
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
        n_shards = 0
        n_failed = 0
        label = plan_label(self.plan_key(requests[indices[0]]))
        with timed_span(
            "service.plan_solve",
            "service.plan_solve_s",
            {"plan": label},
            plan=label,
            n_links=len(indices),
        ):
            for lo in range(0, len(indices), self.max_shard_links):
                shard = list(indices[lo : lo + self.max_shard_links])
                n_shards += 1
                for response in self._solve_screened(requests, shard, label):
                    responses.append(response)
                    if not response.ok:
                        n_failed += 1
        return responses, n_shards, n_failed

    def _solve_screened(
        self,
        requests: Sequence[RangingRequest],
        shard: Sequence[int],
        label: str,
    ) -> list[RangingResponse]:
        """One shard's responses, in shard order.

        Links whose products fail
        :func:`~repro.core.batch.unsolvable_reason` are answered with
        that reason, and the rest go to the engine in one batched call.
        Should that call still raise, those links are retried one at a
        time: the backstop for failures the screen cannot foresee,
        counted by ``service.isolated_retries_total``.
        """
        by_index: dict[int, RangingResponse] = {}
        solvable: list[int] = []
        for i in shard:
            reason = unsolvable_reason(requests[i].products)
            if reason is None:
                solvable.append(i)
            else:
                by_index[i] = RangingResponse(
                    link_id=requests[i].link_id, estimate=None, error=reason
                )
        if solvable:
            try:
                solved = self._solve_shard(requests, solvable)
            except ISOLATED_LINK_ERRORS:
                REGISTRY.inc("service.isolated_retries_total", plan=label)
                solved = [self._solve_one(requests[i]) for i in solvable]
            by_index.update(zip(solvable, solved, strict=True))
        return [by_index[i] for i in shard]

    def report(self) -> dict:
        """Observability snapshot: service config, stats + series.

        Matches the shape of the stream/loc layers' ``report()`` hooks
        (``layer`` + ``stats`` + ``metrics``), so aggregators — the
        ``/health`` endpoint's :func:`repro.obs.report` — can walk all
        four layers uniformly.  Nests the engine's own report.
        ``stats`` is the deprecated best-effort mirror of the latest
        ``submit`` (None before the first); the registry series are the
        authoritative cumulative view.
        """
        return {
            "layer": "service",
            "max_shard_links": self.max_shard_links,
            "stats": (
                asdict(self.last_stats) if self.last_stats is not None else None
            ),
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

    def _solve_shard(
        self, requests: Sequence[RangingRequest], shard: Sequence[int]
    ) -> list[RangingResponse]:
        """One batched solve over the shard's stacked products."""
        first = requests[shard[0]]
        stacked = np.vstack([requests[i].products for i in shard])
        calibrations = [
            requests[i].calibration or LinkCalibration() for i in shard
        ]
        estimates = self.engine.estimate_products_batch(
            first.frequencies_hz,
            stacked,
            exponent=first.exponent,
            calibrations=calibrations,
        )
        return [
            RangingResponse(link_id=requests[i].link_id, estimate=estimate)
            for i, estimate in zip(shard, estimates, strict=True)
        ]

    def _solve_one(self, request: RangingRequest) -> RangingResponse:
        """Single-link fallback; estimation failures become per-link errors."""
        try:
            return self._solve_shard([request], [0])[0]
        except ISOLATED_LINK_ERRORS as exc:
            return RangingResponse(
                link_id=request.link_id,
                estimate=None,
                error=str(exc) or type(exc).__name__,
            )
