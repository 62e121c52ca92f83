"""Asyncio fleet-localization front end over the streaming ranging layer.

The final hop of the serving stack: ranges are not the product —
positions are.  :class:`LocalizationService` turns one client's sweep
into a §8 position fix by fanning the measurement out to the
deployment's K anchors, coalescing the per-anchor range futures, and
resolving the fix through the batched position solver:

* **anchor fan-out** — each ``await locate(...)`` submits one ranging
  request per anchor to a shared
  :class:`~repro.stream.service.StreamingRangingService`.  All K
  submissions park in the same micro-batching window, and *across
  clients too*: M concurrent ``locate`` calls put M×K links into one
  engine flush, so the fleet pays one batch's GEMM amortization for
  the whole tick.  A locate call may name a **request-level anchor
  set** (``anchor_indices``) — the subset of the deployment's APs this
  client actually hears — and its diagnostics come back in the
  client's own anchor frame.
* **coalesced solving** — when a client's ranges resolve, its circle
  system parks on a pending-solve queue; a ``call_soon`` flush batches
  every system that resolved in the same scheduling round through
  :func:`~repro.core.localization_batch.locate_transmitter_batch`, one
  call per anchor count (each client keeps its own anchor array), and
  every call of the flush runs in one hop to the solve worker.
* **per-client isolation** — a failed anchor range (an error, or a
  non-finite or negative distance) drops that anchor (the fix
  degrades gracefully down to 2 anchors); a client whose
  system still cannot be solved gets an error-carrying
  :class:`PositionFix` while its coalesced peers solve on.  The retry
  discipline reuses the serving layer's
  :data:`~repro.net.service.ISOLATED_LINK_ERRORS` contract.
* **track-guided disambiguation** — with an attached
  :class:`~repro.loc.tracker.PositionTrackerBank`, each client's
  predicted position seeds the solver's ``position_hint`` (mirror
  candidates resolved by track likelihood, superseding the one-shot
  ``disambiguate_by_motion``) and accepted fixes update the track.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.localization import GeometryDrop, LocalizationResult, locate_transmitter
from repro.core.localization_batch import locate_transmitter_batch
from repro.core.tof import TofEstimatorConfig
from repro.net.service import ISOLATED_LINK_ERRORS, RangingRequest
from repro.obs import COUNT_BUCKETS, REGISTRY, SpanContext, timed_span, trace
from repro.rf.geometry import Point
from repro.stream.service import (
    StreamConfig,
    StreamingRangingService,
    SweepRequest,
)
from repro.loc.tracker import PositionTrackerBank, PositionTrackState


@dataclass(frozen=True)
class LocConfig:
    """Policy of the localization front end.

    Attributes:
        tolerance_m: Slack for the §12.2 geometry-consistency filter.
    """

    tolerance_m: float = 0.3


@dataclass(frozen=True)
class PositionFix:
    """The service's answer for one client's localization round.

    ``position`` is ``None`` when the round failed outright (too few
    usable anchor ranges, or an unsolvable circle system); ``error``
    then carries the reason.  Per-anchor diagnostics stay populated
    either way — which anchors ranged, which geometry bounds the
    dropped ones violated, and whether the surviving anchors were
    colinear (mirror-ambiguous without a track or hint).

    Every per-anchor sequence and index (``used_anchors``,
    ``distances_m``, ``anchor_errors``, ``geometry_drops``) is in the
    **client's own anchor frame**: position ``j`` refers to the j-th
    request of the locate call.  ``anchor_indices`` maps that frame
    back to the deployment (``anchor_indices[j]`` is the index into
    ``LocalizationService.anchors``); with the default all-anchors
    locate the two frames coincide.
    """

    client_id: str
    position: Point | None
    residual_rms_m: float
    used_anchors: tuple[int, ...]
    distances_m: tuple[float, ...]
    anchor_errors: tuple[str | None, ...]
    geometry_drops: tuple[GeometryDrop, ...]
    anchors_colinear: bool
    candidates: tuple[Point, ...]
    anchor_indices: tuple[int, ...] = ()
    track: PositionTrackState | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        """Whether the round produced a position."""
        return self.position is not None

    @property
    def n_anchors_ok(self) -> int:
        """How many anchors returned a usable range."""
        return sum(1 for e in self.anchor_errors if e is None)


@dataclass(frozen=True)
class LocStats:
    """Cumulative telemetry of one localization service instance.

    ``n_solves`` counts solver *calls* actually made (a group that fell
    back to per-client retries counts each retry), and
    ``largest_solve`` is the largest genuinely batched call — so
    ``mean_clients_per_solve`` reflects real coalescing, not hopes.
    """

    n_fixes: int = 0
    n_failed: int = 0
    n_solves: int = 0
    largest_solve: int = 0
    n_anchor_range_failures: int = 0

    @property
    def mean_clients_per_solve(self) -> float:
        """Average position-solve coalescing achieved so far."""
        return self.n_fixes / self.n_solves if self.n_solves else 0.0


@dataclass
class _PendingSolve:
    """One client's resolved circle system awaiting the batched solver."""

    client_id: str
    anchor_xy: list[Point]
    distances: list[float]
    hint: Point | None
    future: asyncio.Future = field(repr=False)
    # The parking client's locate-span context: the batched solve's
    # span parents under its group's first client, stitching the solve
    # into that request's trace across the worker-thread hop.
    ctx: SpanContext | None = None
    # When the client parked; its queue wait ends when its group's
    # solve starts on the solve worker.
    parked_perf_s: float = 0.0


class LocalizationService:
    """Serves position fixes for a fleet of clients over shared anchors.

    Single-loop discipline matches the streaming layer: all ``locate``
    coroutines must run on one event loop.

    Args:
        anchors: The deployment's anchor positions (e.g. the receive
            antennas of the serving APs), world frame.  Each ``locate``
            call supplies one ranging measurement per anchor.
        config: Estimator settings for an internally-built ranging
            service.
        stream: Micro-batching policy for the internal ranging service.
        ranging: Injectable streaming ranging backend; overrides
            ``config``/``stream``.  Sharing one backend between the
            fleet service and direct ranging callers coalesces
            everything into the same flushes.
        loc: Localization policy (the geometry filter's slack).
        trackers: Optional position-track bank.  When present, fixes
            with a timestamp update the client's track and the track's
            predicted position seeds candidate disambiguation.
    """

    def __init__(
        self,
        anchors: Sequence[Point],
        config: TofEstimatorConfig | None = None,
        stream: StreamConfig | None = None,
        ranging: StreamingRangingService | None = None,
        loc: LocConfig | None = None,
        trackers: PositionTrackerBank | None = None,
    ):
        self.anchors = tuple(anchors)
        if len(self.anchors) < 2:
            raise ValueError(
                f"need at least 2 anchors, got {len(self.anchors)}"
            )
        self.ranging = ranging or StreamingRangingService(config, stream)
        self.loc_config = loc or LocConfig()
        self.trackers = trackers
        self._pending: list[_PendingSolve] = []
        self._solve_handle: asyncio.Handle | None = None
        self._solve_loop: asyncio.AbstractEventLoop | None = None
        self._stats = LocStats()
        # Lazily-created size-1 worker the position solves run on.
        # Size 1 on purpose: solves stay ordered (and the solver layer
        # needs no thread safety of its own), the win is keeping the
        # loop free, not solver parallelism.
        self._solve_executor: ThreadPoolExecutor | None = None
        self._inflight: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def n_anchors(self) -> int:
        """Number of anchors every locate round ranges against."""
        return len(self.anchors)

    @property
    def stats(self) -> LocStats:
        """Cumulative fix/solve telemetry."""
        return self._stats

    @property
    def n_pending_solves(self) -> int:
        """Circle systems parked awaiting the next batched solve."""
        return len(self._pending)

    def report(self) -> dict:
        """Observability snapshot: loc stats + series + the ranging layer's.

        Nests the backing streaming service's own :meth:`report`, so one
        call surfaces the whole serving column under this front end.
        """
        return {
            "layer": "loc",
            "stats": dataclasses.asdict(self._stats),
            "n_pending_solves": len(self._pending),
            "metrics": REGISTRY.snapshot(prefix="loc."),
            "ranging": self.ranging.report(),
        }

    async def locate(
        self,
        client_id: str,
        requests: Sequence[RangingRequest | SweepRequest],
        time_s: float | None = None,
        position_hint: Point | None = None,
        anchor_indices: Sequence[int] | None = None,
    ) -> PositionFix:
        """One localization round: range the client's anchors, solve.

        Args:
            client_id: Caller's identifier, echoed in the fix.
            requests: One ranging request per anchor the client hears,
                in ``anchor_indices`` order — product-level or
                sweep-level, freely mixed.
            time_s: Measurement timestamp; enables track updates when a
                tracker bank is attached.
            position_hint: Explicit prior for candidate disambiguation;
                overrides the track prediction.
            anchor_indices: The client's anchor set — indices into the
                deployment's ``anchors``, one per request.  Real
                multi-AP deployments range against whichever APs each
                client can hear; this names them.  Default: every
                deployment anchor, in order (the per-service behavior,
                unchanged).  The fix's diagnostics are reported in this
                client frame, with ``PositionFix.anchor_indices``
                mapping back to the deployment.
        """
        with timed_span(
            "loc.locate",
            "loc.locate_s",
            client=client_id,
            n_anchors=len(requests),
        ):
            return await self._locate_impl(
                client_id, requests, time_s, position_hint, anchor_indices
            )

    async def _locate_impl(
        self,
        client_id: str,
        requests: Sequence[RangingRequest | SweepRequest],
        time_s: float | None,
        position_hint: Point | None,
        anchor_indices: Sequence[int] | None,
    ) -> PositionFix:
        """:meth:`locate` body, inside the round's span."""
        if anchor_indices is None:
            client_anchor_indices = tuple(range(len(self.anchors)))
        else:
            client_anchor_indices = tuple(anchor_indices)
            for i in client_anchor_indices:
                # int() would read 1.7 as 1 and True as 1.
                if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
                    raise ValueError(
                        f"client {client_id!r}: anchor index {i!r} is not "
                        "an integer"
                    )
                if not 0 <= i < len(self.anchors):
                    raise ValueError(
                        f"client {client_id!r}: anchor index {i} outside "
                        f"the deployment's {len(self.anchors)} anchors"
                    )
            client_anchor_indices = tuple(int(i) for i in client_anchor_indices)
            if len(set(client_anchor_indices)) != len(client_anchor_indices):
                raise ValueError(
                    f"client {client_id!r}: duplicate anchor indices in "
                    f"{client_anchor_indices}"
                )
            if len(client_anchor_indices) < 2:
                raise ValueError(
                    f"client {client_id!r}: an anchor set needs >= 2 "
                    f"anchors, got {len(client_anchor_indices)}"
                )
        if len(requests) != len(client_anchor_indices):
            raise ValueError(
                f"client {client_id!r}: got {len(requests)} requests for "
                f"{len(client_anchor_indices)} anchors"
            )
        client_anchors = [self.anchors[i] for i in client_anchor_indices]
        REGISTRY.observe(
            "loc.fanout_links", float(len(requests)), buckets=COUNT_BUCKETS
        )
        responses = await asyncio.gather(
            *(self.ranging.submit(request) for request in requests)
        )
        # From here on, indices are in the client's anchor frame:
        # position j refers to requests[j] / client_anchors[j].
        anchor_errors: list[str | None] = []
        ok_indices: list[int] = []
        ok_distances_m: list[float] = []  # parallel to ok_indices
        for idx, response in enumerate(responses):
            estimate = response.estimate
            distance_m = math.nan if estimate is None else estimate.distance_m
            if not response.ok or not math.isfinite(distance_m):
                anchor_errors.append(
                    response.error or "non-finite distance estimate"
                )
            elif distance_m < 0.0:
                # A calibration bias larger than the link's ToF: no
                # circle to intersect, so the anchor drops like a NaN.
                anchor_errors.append(
                    f"negative distance estimate ({distance_m:.2f} m)"
                )
            else:
                anchor_errors.append(None)
                ok_indices.append(idx)
                ok_distances_m.append(distance_m)
        n_range_failures = len(responses) - len(ok_indices)
        if len(ok_indices) < 2:
            return self._fail(
                client_id,
                anchor_errors,
                n_range_failures,
                client_anchor_indices,
                error=(
                    f"only {len(ok_indices)} of {len(client_anchor_indices)} "
                    "anchors ranged (need 2)"
                ),
            )

        hint = position_hint
        if hint is None and self.trackers is not None and time_s is not None:
            hint = self.trackers.position_hint(client_id, time_s)
        result, solve_error = await self._solve(
            client_id,
            [client_anchors[i] for i in ok_indices],
            ok_distances_m,
            hint,
        )
        if result is None:
            return self._fail(
                client_id,
                anchor_errors,
                n_range_failures,
                client_anchor_indices,
                error=solve_error,
            )

        track = None
        if self.trackers is not None and time_s is not None:
            track = self.trackers.update(client_id, result.position, time_s)
        self._stats = self._bump(
            n_fixes=1, n_anchor_range_failures=n_range_failures
        )
        REGISTRY.inc("loc.fixes_total", ok=True)
        if n_range_failures:
            REGISTRY.inc("loc.range_failures_total", n_range_failures)
        if result.geometry_drops:
            REGISTRY.inc("loc.geometry_drops_total", len(result.geometry_drops))
        distance_by_index = dict(zip(ok_indices, ok_distances_m, strict=True))
        return PositionFix(
            client_id=client_id,
            position=result.position,
            residual_rms_m=result.residual_rms_m,
            used_anchors=tuple(ok_indices[i] for i in result.used_indices),
            distances_m=tuple(
                distance_by_index.get(i, math.nan)
                for i in range(len(anchor_errors))
            ),
            anchor_errors=tuple(anchor_errors),
            geometry_drops=tuple(
                GeometryDrop(
                    index=ok_indices[d.index],
                    against=ok_indices[d.against],
                    bound_m=d.bound_m,
                    excess_m=d.excess_m,
                )
                for d in result.geometry_drops
            ),
            anchors_colinear=result.anchors_colinear,
            candidates=result.candidates,
            anchor_indices=client_anchor_indices,
            track=track,
            error=None,
        )

    async def drain(self) -> None:
        """Flush parked ranging and position solves now.

        Also awaits every in-flight solve task on this loop, so callers'
        futures are resolved by the time ``drain`` returns.
        """
        await self.ranging.drain()
        if self._pending:
            self._cancel_scheduled_solve()
            self._flush_solves()
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
        await asyncio.sleep(0)

    def close(self) -> None:
        """Release the worker threads this service owns (idempotent).

        Owners that create and discard many services (tests,
        experiments) should call this — the streaming layer's flush
        executors and the position-solve worker are real threads.  The
        service stays usable; a later round simply spins the workers
        back up.
        """
        self.ranging.close()
        executor, self._solve_executor = self._solve_executor, None
        if executor is not None:
            executor.shutdown(wait=False)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    async def _solve(
        self,
        client_id: str,
        anchor_xy: list[Point],
        distances: list[float],
        hint: Point | None,
    ) -> tuple[LocalizationResult | None, str | None]:
        """Park the circle system and await the coalesced batched solve."""
        loop = asyncio.get_running_loop()
        if self._solve_handle is not None and self._solve_loop is not loop:
            # A previous loop died with the solve flush still scheduled;
            # forget it so this loop gets its own (same recovery as the
            # streaming flush timer).
            self._solve_handle = None
        future: asyncio.Future = loop.create_future()
        self._pending.append(
            _PendingSolve(
                client_id,
                anchor_xy,
                distances,
                hint,
                future,
                ctx=trace.current(),
                parked_perf_s=time.perf_counter(),
            )
        )
        self._solve_loop = loop
        if self._solve_handle is None:
            self._solve_handle = loop.call_soon(self._flush_solves)
        return await future

    def _cancel_scheduled_solve(self) -> None:
        if self._solve_handle is not None:
            self._solve_handle.cancel()
            self._solve_handle = None

    def _flush_solves(self) -> None:
        """Solve every parked circle system, one batched call per anchor count.

        Runs as a loop callback, so every system parked in the current
        scheduling round (typically: all clients whose ranges resolved
        from one engine flush) solves together.  Systems are grouped by
        usable anchor count, the one shape the batched solver needs to
        share; each client passes its own anchor array, so clients on
        different anchor subsets stack into one call.  A degenerate
        system is retried alone so its group survives.

        Every call of the flush runs in one hop to the solve worker and
        only their *results* come back to the loop to resolve futures,
        so a fleet-sized least-squares tick does not freeze the loop
        (and every ranging timer on it) for its duration.
        """
        self._solve_handle = None
        pending = [
            p
            for p in self._pending
            if not p.future.done() and not p.future.get_loop().is_closed()
        ]
        self._pending = []
        if not pending:
            return
        by_count: dict[int, list[_PendingSolve]] = {}
        for p in pending:
            by_count.setdefault(len(p.anchor_xy), []).append(p)
        task = asyncio.get_running_loop().create_task(
            self._run_solves(list(by_count.values()))
        )
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _run_solves(self, groups: list[list[_PendingSolve]]) -> None:
        """Flush body: solve every group on the worker, resolve on the loop.

        All groups go to the worker in one ``run_in_executor`` call.
        Futures are resolved only after the ``await`` (on the loop —
        ``Future.set_result`` is not thread-safe), and the stats update
        runs loop-serialized after the last group lands, the same
        ordering discipline as the streaming layer's flush.
        """
        loop = asyncio.get_running_loop()
        if self._solve_executor is None:
            self._solve_executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="loc-solve"
            )
        solved = await loop.run_in_executor(
            self._solve_executor,
            lambda: [self._solve_group_safe(group) for group in groups],
        )
        n_solves = 0
        largest = 0
        for group, (outcomes, error, batched) in zip(groups, solved, strict=True):
            self._resolve_group(group, outcomes, error)
            # One solve per solver call actually made: a group that fell
            # back to per-client retries counts each retry.  Fixes and
            # failures are counted in ``locate``.
            n_solves += 1 if batched else len(group)
            largest = max(largest, len(group) if batched else 1)
        self._stats = self._bump(n_solves=n_solves, largest_solve=largest)

    def _solve_group_safe(
        self, group: list[_PendingSolve]
    ) -> tuple[
        list[tuple[LocalizationResult | None, str | None]] | None,
        Exception | None,
        bool,
    ]:
        """Solve one same-anchor-count group; pure compute, no futures.

        Returns ``(outcomes, fatal_error, batched)``.  Runs on the solve
        worker: it touches no loop or service state, so the caller
        resolves futures (and bumps stats) on the loop.  Each member
        passes its own anchor array to the batched solver.

        The solve span parents under the group's first client's locate
        span explicitly: contextvars do not cross ``run_in_executor``.
        Each client's queue wait, from parking to this solve's start,
        becomes a ``loc.queue_wait_s`` observation and a
        ``loc.queue_wait`` span under that client's locate span, so a
        backlog on the worker shows in it.
        """
        start = time.perf_counter()
        for p in group:
            REGISTRY.observe("loc.queue_wait_s", start - p.parked_perf_s)
            trace.record_span(
                "loc.queue_wait",
                start_perf_s=p.parked_perf_s,
                end_perf_s=start,
                parent=p.ctx,
                client=p.client_id,
            )
        batched = True
        with timed_span(
            "loc.solve",
            "loc.solve_s",
            parent=group[0].ctx,
            n_clients=len(group),
        ):
            try:
                try:
                    results = locate_transmitter_batch(
                        [p.anchor_xy for p in group],
                        np.array([p.distances for p in group], dtype=float),
                        tolerance_m=self.loc_config.tolerance_m,
                        position_hints=[p.hint for p in group],
                    )
                    outcomes: list[tuple[LocalizationResult | None, str | None]] = [
                        (result, None) for result in results
                    ]
                except ISOLATED_LINK_ERRORS:
                    batched = False
                    outcomes = [self._solve_alone(p) for p in group]
            except Exception as exc:  # noqa: BLE001 — a dying solve must not hang callers
                return None, exc, batched
        return outcomes, None, batched

    @staticmethod
    def _resolve_group(
        group: list[_PendingSolve],
        outcomes: list[tuple[LocalizationResult | None, str | None]] | None,
        error: Exception | None,
    ) -> None:
        """Deliver one group's solve results to its callers (loop only)."""
        if outcomes is None:
            for p in group:
                if not p.future.done() and not p.future.get_loop().is_closed():
                    p.future.set_exception(
                        error if error is not None else RuntimeError("solve failed")
                    )
            return
        for p, outcome in zip(group, outcomes, strict=True):
            if not p.future.done() and not p.future.get_loop().is_closed():
                p.future.set_result(outcome)

    def _solve_alone(
        self, p: _PendingSolve
    ) -> tuple[LocalizationResult | None, str | None]:
        """Scalar per-client retry with the serving layer's isolation rule."""
        try:
            return (
                locate_transmitter(
                    p.anchor_xy,
                    p.distances,
                    tolerance_m=self.loc_config.tolerance_m,
                    position_hint=p.hint,
                ),
                None,
            )
        except ISOLATED_LINK_ERRORS as exc:
            return None, str(exc) or type(exc).__name__

    def _fail(
        self,
        client_id: str,
        anchor_errors: list[str | None],
        n_range_failures: int,
        anchor_indices: tuple[int, ...],
        error: str,
    ) -> PositionFix:
        self._stats = self._bump(
            n_failed=1, n_anchor_range_failures=n_range_failures
        )
        REGISTRY.inc("loc.fixes_total", ok=False)
        if n_range_failures:
            REGISTRY.inc("loc.range_failures_total", n_range_failures)
        return PositionFix(
            client_id=client_id,
            position=None,
            residual_rms_m=math.nan,
            used_anchors=(),
            distances_m=(math.nan,) * len(anchor_indices),
            anchor_errors=tuple(anchor_errors),
            geometry_drops=(),
            anchors_colinear=False,
            candidates=(),
            anchor_indices=anchor_indices,
            track=None,
            error=error,
        )

    def _bump(self, **deltas: int) -> LocStats:
        s = self._stats
        values = {
            "n_fixes": s.n_fixes,
            "n_failed": s.n_failed,
            "n_solves": s.n_solves,
            "largest_solve": s.largest_solve,
            "n_anchor_range_failures": s.n_anchor_range_failures,
        }
        for key, delta in deltas.items():
            if key == "largest_solve":
                values[key] = max(values[key], delta)
            else:
                values[key] += delta
        return LocStats(**values)
