"""Asyncio streaming front end over the batched ranging service.

:class:`~repro.net.service.RangingService` is request/response: the
caller must already hold a batch to amortize the engine's GEMMs.
Continuous workloads (a drone re-ranging its user at 12 Hz, hundreds of
independent 1-link client streams hitting a ranging deployment) don't
naturally have one — each stream produces one measurement at a time.

:class:`StreamingRangingService` closes that gap with **micro-batching**:
every ``await submit(request)`` parks the request on a pending queue and
suspends the caller; a coalescing scheduler flushes the queue into one
:class:`RangingService` submission either when ``max_batch_links``
requests are waiting or after ``max_wait_s`` (whichever first), then
resolves every caller's future from the per-link responses.  N
concurrent 1-link streams therefore get the same band-plan grouping,
sharding and GEMM amortization as one N-link batch —
``tests/test_stream.py::TestStreamingEquivalence::test_concurrent_streams_match_one_shot_batch``
pins the parity.

Failure isolation is the service layer's own
(:func:`~repro.net.service.solve_isolated`, for product and sweep
groups alike): a poisoned stream (NaN CSI, dead radio) resolves to an
error-carrying :class:`RangingResponse` for *that* caller only, named
by the engine, and its coalesced peers get their estimates from one
more batched call.

Sweep-level requests (:class:`SweepRequest`) ride the same queue and
flush through :meth:`BatchTofEngine.estimate_sweeps_batch`, which
shards the per-link band groups by frequency set — so even streams on
heterogeneous band plans coalesce whatever they share.

Flushes solve on **one flush worker** per service, a lazily created
size-1 thread: each flush partitions into its plan groups and every
group is queued on that worker in first-seen order, so solves keep
strict order on one thread; stats updates stay loop-serialized, and a
group's callers resolve as soon as their group returns.  A request's
queue wait runs from its enqueue to the start of its group's solve on
the worker, so any backlog on the worker (an earlier group's solve,
of this flush or of an earlier one) counts as queue wait.
"""

from __future__ import annotations

import asyncio
import dataclasses
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

from repro.core.cfo import LinkCalibration
from repro.core.tof import TofEstimatorConfig
from repro.net.service import (
    LinkRequest,
    RangingRequest,
    RangingResponse,
    RangingService,
    plan_label,
    solve_isolated,
)
from repro.obs import (
    COUNT_BUCKETS,
    REGISTRY,
    ObsServer,
    SpanContext,
    timed_span,
    trace,
)
from repro.wifi.csi import CsiSweep


@dataclass(frozen=True)
class StreamConfig:
    """Micro-batching policy of the streaming front end.

    Attributes:
        max_wait_s: Coalescing window: the oldest pending request waits
            at most this long before a flush.  ``0`` flushes on the next
            event-loop tick, which still coalesces everything submitted
            in the same scheduling round (e.g. one ``asyncio.gather``).
        max_batch_links: Flush immediately once this many requests are
            pending — bounds per-flush latency and memory under load.
        serve_port: Start an embedded telemetry endpoint
            (:class:`repro.obs.ObsServer`: ``/metrics``, ``/health``,
            ``/traces``) on this localhost port when the service is
            constructed; ``0`` binds an ephemeral port (read it back
            from ``service.obs_server.port``), ``None`` (default) runs
            no server.  The service stops it on ``close()``.
    """

    max_wait_s: float = 2e-3
    max_batch_links: int = 256
    serve_port: int | None = None

    def __post_init__(self) -> None:
        if self.max_wait_s < 0:
            raise ValueError(f"max_wait_s must be >= 0, got {self.max_wait_s}")
        if self.max_batch_links < 1:
            raise ValueError(
                f"max_batch_links must be >= 1, got {self.max_batch_links}"
            )
        if self.serve_port is not None and not 0 <= self.serve_port <= 65535:
            raise ValueError(
                f"serve_port must be in [0, 65535], got {self.serve_port}"
            )


@dataclass(frozen=True)
class SweepRequest(LinkRequest):
    """One link's raw CSI sweeps, to be estimated with full semantics.

    Unlike the product-level :class:`~repro.net.service.RangingRequest`,
    a sweep request runs the complete estimator front end per link —
    coarse slope gating, per-group product averaging, group fusion —
    via the engine's batched sweep path.  The shared request envelope
    (link id, metadata) comes from
    :class:`~repro.net.service.LinkRequest`.
    """

    sweeps: tuple[CsiSweep, ...] = ()
    calibration: LinkCalibration | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        self._check_calibration(self.calibration)
        object.__setattr__(self, "sweeps", tuple(self.sweeps))
        if not self.sweeps:
            raise ValueError(f"request {self.link_id!r}: need at least one sweep")
        for sweep in self.sweeps:
            if not isinstance(sweep, CsiSweep):
                raise TypeError(
                    f"request {self.link_id!r}: sweeps must be CsiSweep, "
                    f"got {type(sweep).__name__}"
                )

    def plan_signature(self) -> tuple[str, tuple[float, ...]]:
        """Frequency-set identity: the band centers across the sweeps.

        Ignores sweep count and order, so links with different numbers
        of sweeps pending still coalesce into one batched sweep solve
        (the engine shards by frequency set internally); the leading
        marker keeps sweep groups disjoint from product-request keys.
        """
        return (
            "sweeps",
            tuple(
                sorted(
                    {
                        float(center)
                        for sweep in self.sweeps
                        for center in sweep.center_frequencies_hz
                    }
                )
            ),
        )


@dataclass(frozen=True)
class StreamStats:
    """Cumulative telemetry of one streaming service instance.

    ``n_groups`` counts the plan groups flushes queued on the flush
    worker (a single-plan flush is one group, a mixed flush one per
    plan), and the per-type failure counts split ``n_failed`` by
    request kind — ``n_failed == n_failed_products + n_failed_sweeps``
    always holds.
    """

    n_requests: int = 0
    n_flushes: int = 0
    n_failed: int = 0
    largest_flush: int = 0
    n_groups: int = 0
    n_failed_products: int = 0
    n_failed_sweeps: int = 0

    @property
    def mean_links_per_flush(self) -> float:
        """Average coalescing achieved so far."""
        return self.n_requests / self.n_flushes if self.n_flushes else 0.0


@dataclass
class _Pending:
    """One parked request and the future its caller awaits.

    ``enqueued_perf_s`` and ``ctx`` carry the request's queue-entry
    timestamp and its submit span's context to the flush worker, so the
    queue wait becomes both a ``stream.queue_wait_s`` observation and a
    retroactive trace span parented under the caller's submit.
    """

    request: RangingRequest | SweepRequest
    future: asyncio.Future = field(repr=False)
    enqueued_perf_s: float = 0.0
    ctx: SpanContext | None = None


class StreamingRangingService:
    """Coalesces per-link streaming submissions into batched solves.

    Single-loop discipline: all ``submit`` coroutines must run on one
    event loop (the flush callback and the pending queue belong to it).
    Threaded callers go through :class:`repro.stream.client.StreamClient`,
    which owns a dedicated loop and forwards submissions onto it —
    coalescing across threads for free.

    Args:
        config: Estimator settings for an internally-built service.
        stream: Micro-batching policy.
        service: Injectable backing service (tests pass instrumented
            ones); overrides ``config``.
    """

    def __init__(
        self,
        config: TofEstimatorConfig | None = None,
        stream: StreamConfig | None = None,
        service: RangingService | None = None,
    ):
        self.service = service or RangingService(config)
        self.stream_config = stream or StreamConfig()
        self._pending: list[_Pending] = []
        self._flush_handle: asyncio.TimerHandle | asyncio.Handle | None = None
        self._flush_loop: asyncio.AbstractEventLoop | None = None
        self._stats = StreamStats()
        # The one flush worker, created on first use.  close() may run
        # from any owner thread while a StreamClient loop queues a
        # group, so creating, queueing on and swapping out the worker
        # all happen under one lock: close() never misses a worker it
        # should shut down, and no group is queued on one it already
        # shut down.
        self._executor_lock = threading.Lock()
        self._executor: ThreadPoolExecutor | None = None  # guarded-by: self._executor_lock
        self._inflight: set[asyncio.Task] = set()
        # Embedded telemetry endpoint, config-gated; stopped by close().
        self.obs_server: ObsServer | None = None
        if self.stream_config.serve_port is not None:
            self.obs_server = ObsServer(
                port=self.stream_config.serve_port
            ).start()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def engine(self):
        """The backing batched engine (shared with the request path)."""
        return self.service.engine

    @property
    def stats(self) -> StreamStats:
        """Cumulative coalescing telemetry."""
        return self._stats

    @property
    def n_pending(self) -> int:
        """Requests currently parked awaiting the next flush."""
        return len(self._pending)

    async def submit(
        self, request: RangingRequest | SweepRequest
    ) -> RangingResponse:
        """Range one link; resolves after the next flush.

        The single entry point for every request kind: product-level
        :class:`~repro.net.service.RangingRequest` and sweep-level
        :class:`SweepRequest` both park on the same queue and dispatch
        on their type at flush time.  The returned response carries the
        same :class:`TofEstimate` the batch path would produce (engine
        semantics are identical), or a per-link ``error`` when this
        stream's measurement was unusable.
        """
        if not isinstance(request, (RangingRequest, SweepRequest)):
            raise TypeError(
                "submit takes a RangingRequest or SweepRequest, got "
                f"{type(request).__name__}"
            )
        # The submit span covers the full await — park, queue wait,
        # flush, solve, resolve — so its duration is the caller's
        # end-to-end latency, and every downstream span of this
        # request's flush chains into its trace.
        with trace.span("stream.submit", link=request.link_id):
            return await self._enqueue(request)

    async def drain(self) -> None:
        """Flush anything pending now instead of waiting out the window.

        Also awaits every in-flight solve on this loop, so callers'
        futures are resolved by the time ``drain`` returns.
        """
        if self._pending:
            self._cancel_scheduled_flush()
            self._flush()
        loop = asyncio.get_running_loop()
        while True:
            # Tasks created on a loop that has since died have no
            # caller left to deliver to; awaiting them here would raise.
            self._inflight = {
                t for t in self._inflight if not t.get_loop().is_closed()
            }
            mine = [
                t
                for t in self._inflight
                if not t.done() and t.get_loop() is loop
            ]
            if not mine:
                break
            await asyncio.gather(*mine, return_exceptions=True)
        # Yield once so resolved futures propagate to their awaiters.
        await asyncio.sleep(0)

    def close(self) -> None:
        """Release the flush worker thread (idempotent).

        Only needed by owners that create and discard many services
        (tests, short-lived clients); a long-lived deployment keeps the
        worker for its whole life.  Queued and in-flight solves finish,
        and a submission after ``close`` simply spins up a fresh worker
        — the service stays usable.
        """
        with self._executor_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False)
        if self.obs_server is not None:
            self.obs_server.stop()

    # ------------------------------------------------------------------
    # Micro-batching internals
    # ------------------------------------------------------------------
    async def _enqueue(
        self, request: RangingRequest | SweepRequest
    ) -> RangingResponse:
        loop = asyncio.get_running_loop()
        if self._flush_handle is not None and self._flush_loop is not loop:
            # A previous loop died (asyncio.run torn down mid-window)
            # with the flush timer still scheduled; that handle will
            # never fire here.  Forget it so this loop gets its own.
            self._flush_handle = None
        future: asyncio.Future = loop.create_future()
        self._pending.append(
            _Pending(
                request,
                future,
                enqueued_perf_s=time.perf_counter(),
                ctx=trace.current(),
            )
        )
        self._flush_loop = loop
        if len(self._pending) >= self.stream_config.max_batch_links:
            self._cancel_scheduled_flush()
            self._flush_handle = loop.call_soon(self._flush)
        elif self._flush_handle is None:
            if self.stream_config.max_wait_s <= 0:
                self._flush_handle = loop.call_soon(self._flush)
            else:
                self._flush_handle = loop.call_later(
                    self.stream_config.max_wait_s, self._flush
                )
        return await future

    def _cancel_scheduled_flush(self) -> None:
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None

    def _flush(self) -> None:
        """Run every pending request through the batched back end.

        Runs as a loop callback: by the time it fires, every submission
        from the current scheduling round has been parked, so one flush
        serves them all.  Each of the flush's plan groups solves on the
        flush worker and only the solves' *results* come back to the
        loop to resolve futures — submissions arriving while a solve is
        in flight park as usual and coalesce into the next batch.
        """
        self._flush_handle = None
        # Requests whose callers are gone (cancelled futures, or futures
        # whose loop was torn down mid-window) would cost a full engine
        # solve only to have their results discarded — drop them before
        # batching, so neither the solve nor the stats count phantoms.
        self._pending = [
            p
            for p in self._pending
            if not p.future.done() and not p.future.get_loop().is_closed()
        ]
        if not self._pending:
            return
        # Honor the size bound even when more requests parked between
        # the cap being hit and this callback running: flush one full
        # batch, leave the overflow pending and follow up immediately.
        cap = self.stream_config.max_batch_links
        batch, self._pending = self._pending[:cap], self._pending[cap:]
        if self._pending:
            self._flush_handle = asyncio.get_running_loop().call_soon(self._flush)
        REGISTRY.set_gauge("stream.queue_depth", len(self._pending))
        task = asyncio.get_running_loop().create_task(
            self._flush_offloaded(batch)
        )
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    def _plan_groups(
        self, batch: list[_Pending]
    ) -> list[tuple[object, list[_Pending], object, bool]]:
        """Partition one flush into independently solvable plan groups.

        Product requests group per the backing service's ``plan_key``
        (its own band-plan rule — respected even when a subclass
        refines it, so partitioning and ``submit_grouped`` validation
        can never disagree); sweep requests group per *frequency-set*
        signature — the set of band centers across the request's
        sweeps, ignoring sweep count and order.  That keeps PR 3's
        cross-link sweep coalescing: links with different numbers of
        sweeps pending still share one ``estimate_sweeps_batch`` call
        (the engine shards by frequency set internally), while sweeps
        on genuinely different plans land in different groups.
        Returns ``(plan key, pending, solver, is_sweep)`` tuples in
        first-seen order, the order the flush worker solves them in.
        """
        groups: dict[object, tuple[object, list[_Pending], object, bool]] = {}
        for p in batch:
            if isinstance(p.request, RangingRequest):
                key: object = ("products", self.service.plan_key(p.request))
                solver: object = self._solve_products
                is_sweep = False
            else:
                # SweepRequest.plan_signature: a "sweeps"-marked
                # frequency-set key, disjoint from product keys.
                key = p.request.plan_signature()
                solver = self._solve_sweeps
                is_sweep = True
            entry = groups.get(key)
            if entry is None:
                entry = (key, [], solver, is_sweep)
                groups[key] = entry
            entry[1].append(p)
        return list(groups.values())

    async def _flush_offloaded(self, batch: list[_Pending]) -> None:
        """One flush with its engine solves on the flush worker.

        Every plan group of the flush is queued on the worker in
        first-seen order; each group's callers resolve as soon as
        *their* group returns, without waiting for later groups to
        solve.  Futures are resolved on the loop (after the ``await``),
        never from the worker — ``Future.set_result`` is not
        thread-safe — and the stats update runs loop-serialized after
        the last group lands, still ahead of any awaiting caller
        resuming, so ``stats`` reads consistently right after a gather
        over submissions completes.
        """
        groups = self._plan_groups(batch)
        # Parenting under the first request's submit span keeps one
        # request's whole chain a single trace tree; batch-mates link
        # in through their own queue_wait spans.
        with trace.span(
            "stream.flush",
            parent=batch[0].ctx,
            n_links=len(batch),
            n_groups=len(groups),
        ) as flush_span:
            failures = await asyncio.gather(
                *(
                    self._solve_group(pending, solver, key, flush_span.context)
                    for key, pending, solver, _is_sweep in groups
                )
            )
        n_failed_products = 0
        n_failed_sweeps = 0
        for (_key, _pending, _solver, is_sweep), failed in zip(
            groups, failures, strict=True
        ):
            if is_sweep:
                n_failed_sweeps += failed
            else:
                n_failed_products += failed
        self._record_flush(batch, len(groups), n_failed_products, n_failed_sweeps)

    async def _solve_group(self, pending, solver, key, flush_ctx) -> int:
        requests = [p.request for p in pending]
        label = plan_label(key)

        def solve_on_worker():
            # Runs on the flush worker.  Contextvars do not cross the
            # thread hop, so the flush span parents explicitly — this
            # is what keeps one request's trace a single tree.  Queue
            # wait ends here, when the solve starts, so any backlog on
            # the worker counts in it; the overload SLO reads this
            # series.
            start = time.perf_counter()
            for p in pending:
                REGISTRY.observe("stream.queue_wait_s", start - p.enqueued_perf_s)
                trace.record_span(
                    "stream.queue_wait",
                    start_perf_s=p.enqueued_perf_s,
                    end_perf_s=start,
                    parent=p.ctx,
                    link=p.request.link_id,
                )
            with timed_span(
                "stream.plan_solve",
                "stream.solve_s",
                {"plan": label},
                parent=flush_ctx,
                plan=label,
                n_links=len(requests),
            ):
                return solver(requests)

        try:
            responses = await asyncio.wrap_future(self._queue_on_worker(solve_on_worker))
        except Exception as exc:  # noqa: BLE001 — a dying flush must not hang callers
            self._reject_all(pending, exc)
            return len(pending)
        with trace.span(
            "stream.resolve", parent=flush_ctx, n_links=len(pending)
        ):
            return self._resolve(pending, responses)

    def _record_flush(
        self,
        batch: list[_Pending],
        n_groups: int,
        n_failed_products: int,
        n_failed_sweeps: int,
    ) -> None:
        self._stats = StreamStats(
            n_requests=self._stats.n_requests + len(batch),
            n_flushes=self._stats.n_flushes + 1,
            n_failed=self._stats.n_failed + n_failed_products + n_failed_sweeps,
            largest_flush=max(self._stats.largest_flush, len(batch)),
            n_groups=self._stats.n_groups + n_groups,
            n_failed_products=self._stats.n_failed_products + n_failed_products,
            n_failed_sweeps=self._stats.n_failed_sweeps + n_failed_sweeps,
        )
        REGISTRY.inc("stream.requests_total", len(batch))
        REGISTRY.inc("stream.flushes_total")
        REGISTRY.inc("stream.groups_total", n_groups)
        n_failed = n_failed_products + n_failed_sweeps
        if n_failed:
            REGISTRY.inc("stream.failed_total", n_failed)
        REGISTRY.observe(
            "stream.flush_links", float(len(batch)), buckets=COUNT_BUCKETS
        )

    def report(self) -> dict:
        """Observability snapshot: instance stats + the metric series.

        The instance half (``stats``, ``n_pending``) is this service's
        own; the ``metrics`` half is the process-wide registry filtered
        to the serving-stack prefixes, so a deployment with one
        streaming service per process reads it as its own too.
        """
        return {
            "layer": "stream",
            "stats": dataclasses.asdict(self._stats),
            "n_pending": len(self._pending),
            "metrics": {
                **REGISTRY.snapshot(prefix="stream."),
                **REGISTRY.snapshot(prefix="service."),
                **REGISTRY.snapshot(prefix="engine."),
            },
        }

    def _queue_on_worker(
        self, fn: Callable[[], list[RangingResponse]]
    ) -> Future[list[RangingResponse]]:
        """Queue ``fn`` on the flush worker, creating it on first use.

        The engine's operator cache is thread-safe, so the worker may
        run next to direct ``RangingService`` callers.
        """
        with self._executor_lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="ranging-flush"
                )
            return self._executor.submit(fn)

    # ------------------------------------------------------------------
    # Solvers — pure request → responses, safe on the flush worker
    # ------------------------------------------------------------------
    def _solve_products(
        self, requests: list[RangingRequest]
    ) -> list[RangingResponse]:
        """One plan-uniform RangingService solve for a product group.

        ``submit_grouped`` touches no shared service state, so the
        flush worker may run it next to direct callers of the one
        backing service.
        """
        return self.service.submit_grouped(requests)

    def _solve_sweeps(
        self, requests: list[SweepRequest]
    ) -> list[RangingResponse]:
        """Batched sweep estimation under the service's isolation rule
        (:func:`~repro.net.service.solve_isolated`); other failures
        propagate to the caller-side rejection."""
        return solve_isolated(
            requests,
            lambda batch: self.engine.estimate_sweeps_batch(
                [request.sweeps for request in batch],
                [request.calibration or LinkCalibration() for request in batch],
            ),
            "stream.isolated_retries_total",
            plan_label(requests[0].plan_signature()),
        )

    def _resolve(
        self, pending: list[_Pending], responses: list[RangingResponse]
    ) -> int:
        """Deliver one group's responses; never leave a caller parked.

        A backend returning fewer responses than requests used to leave
        the unmatched tail's futures unresolved — their callers awaited
        forever.  The tail now resolves to error-carrying responses
        (counted in ``n_failed``) so a truncating backend degrades into
        per-link failures instead of a hang.
        """
        n_failed = 0
        # Deliberately non-strict: a misbehaving backend may return a
        # short (or long) response list — the unmatched tail is resolved
        # to orphan errors below, and extra responses are ignored.
        for p, response in zip(pending, responses, strict=False):
            if not response.ok:
                n_failed += 1
            if not p.future.done() and not p.future.get_loop().is_closed():
                p.future.set_result(response)
        for p in pending[len(responses):]:
            n_failed += 1
            orphan = RangingResponse(
                link_id=p.request.link_id,
                estimate=None,
                error=(
                    f"backend returned {len(responses)} responses for "
                    f"{len(pending)} requests; this request got none"
                ),
            )
            if not p.future.done() and not p.future.get_loop().is_closed():
                p.future.set_result(orphan)
        return n_failed

    @staticmethod
    def _reject_all(pending: list[_Pending], exc: Exception) -> None:
        for p in pending:
            # A future whose loop died with it has no caller left to
            # deliver to (set_result would raise out of the flush).
            if not p.future.done() and not p.future.get_loop().is_closed():
                p.future.set_exception(exc)
