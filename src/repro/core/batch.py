"""Batched time-of-flight ranging: N links estimated in one shot.

The scalar :class:`~repro.core.tof.TofEstimator` solves one sparse
inversion per link per call — fine for reproducing the paper's figures,
hopeless for a ranging service handling many concurrent links.  This
module restructures that hot path around two observations:

* Everything expensive that depends only on the *band plan* — the NDFT
  matrix ``F``, its adjoint, its Lipschitz constant (a full SVD) and the
  matched-filter grids — is shared by every link on that plan.  The
  engine pulls all of it from the process-wide operator cache
  (:mod:`repro.core.ndft`), so a batch pays the construction cost once.

* The Algorithm 1 inversion itself vectorizes: stacking the per-link
  channel vectors into an ``(n_links, n_bands)`` array turns the
  per-iteration matrix products into single GEMMs over every
  still-active link (:func:`repro.core.sparse.invert_ndft_batch`).

Per-link semantics are unchanged: the scalar estimator is literally the
``N = 1`` case of the batched kernels, and the engine reuses the scalar
estimator's own peak-selection, gating, fusion and calibration code, so
batched and scalar estimates agree to floating-point noise (the batch
regression tests pin the agreement at 1e-12 seconds).

Both estimation methods are batch-first.  ``method="ista"`` runs one
batched Algorithm 1 inversion over the stack.  ``method="hybrid"`` (the
default) runs the batched greedy deflation kernel
(:func:`repro.core.deflation_batch.extract_paths_batch`) — matched
filtering as one GEMM over the stacked residuals, a lockstep
golden-section polish with per-link freezing — followed by the batched
ghost-prune/first-path application and, when diagnostic profiles are
requested, one batched L1 inversion for all links.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from repro.core.cfo import LinkCalibration
from repro.core.deflation import (
    SOFT_GATE_AMPLITUDE_REL,
    SOFT_GATE_WINDOW_S,
    gate_target_mean_s,
    ghost_shifts_s,
)
from repro.core.deflation_batch import (
    extract_paths_batch,
    first_path_delays_batch,
    full_aperture_refit_batch,
    prune_ghost_atoms_batch,
)
from repro.core.hints import SolveHint, WarmStartStats, ensure_hints
from repro.core.ndft import NdftOperator, capped_window_s, get_grid_operator
from repro.obs import COUNT_BUCKETS, REGISTRY, timed_span
from repro.core.profile import MultipathProfile, RefinedPath
from repro.core.sparse import invert_ndft_batch
from repro.core.tof import (
    GroupEstimate,
    TofEstimate,
    TofEstimator,
    TofEstimatorConfig,
    paths_residual_rel,
)
from repro.core.typing import (
    BoolMask,
    ComplexCSI,
    ComplexCSIStack,
    ComplexProfile,
    ComplexProfileStack,
    FrequencyVector,
)
from repro.wifi.csi import CsiSweep


def unsolvable_reason(products: ComplexCSI) -> str | None:
    """Why one link's band products cannot be solved, or ``None``.

    Two conditions fail both estimation methods (hybrid and ista) on a
    row, whatever else shares its batch:

    * a non-finite entry (NaN or Inf), as from a corrupted measurement;
    * no signal power: the sum of ``|product|²`` is zero, as for a dead
      radio's all-zero row, or a row so faint that the squares
      underflow.  The deflation kernel drops links by the same sum.

    The ranging service answers such links before its batched solve and
    :meth:`BatchTofEngine.estimate_products_batch` rejects them at its
    boundary, so both apply this one rule.  A row it passes can still
    fail inside a kernel; the service's link-by-link retry covers those.
    """
    if not np.isfinite(products).all():
        return "non-finite products (NaN or Inf)"
    if np.vdot(products, products).real == 0.0:
        return "no signal power (all products zero)"
    return None


class _WarmTelemetry:
    """Mutable per-call accumulator behind ``last_warm_stats``.

    One instance per public estimate call, threaded through the group
    stacks it spawns and reduced to an immutable
    :class:`~repro.core.hints.WarmStartStats` at the end — keeping the
    engine's public state a single atomic assignment.
    """

    __slots__ = ("n_stale", "iterations")

    def __init__(self) -> None:
        self.n_stale = 0
        self.iterations: list[int] = []

    def snapshot(
        self, n_links: int, hints: Sequence[SolveHint | None]
    ) -> WarmStartStats:
        return WarmStartStats(
            n_links=n_links,
            n_hinted=sum(1 for h in hints if h is not None),
            n_stale=self.n_stale,
            fista_iterations=tuple(self.iterations),
        )


class BatchTofEngine:
    """Estimates time-of-flight for a stack of links sharing a band plan.

    Args:
        config: Estimator settings, shared by every link in a batch.
            Per-link state (calibration) is passed per call instead.

    Attributes:
        last_warm_stats: **Deprecated best-effort mirror** of the most
            recent public estimate call's warm-start telemetry.  Under
            the concurrent flush pool, overlapping plan groups race on
            this attribute — each assignment is atomic (a consistent
            snapshot), but *whose* call you read is arbitrary.  New
            code should pass ``warm_stats_out`` to receive the calling
            solve's own :class:`~repro.core.hints.WarmStartStats`, or
            read the cumulative ``engine.*`` series in
            :data:`repro.obs.REGISTRY`.
    """

    def __init__(self, config: TofEstimatorConfig | None = None):
        self.config = config or TofEstimatorConfig()
        # The scalar estimator supplies every per-link policy (grouping,
        # peak selection, gating, fusion) so batched results cannot
        # drift from scalar ones.  Its calibration stays identity; the
        # engine applies per-link calibrations itself.
        self._estimator = TofEstimator(self.config)
        self.last_warm_stats = WarmStartStats()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def estimate_products_batch(
        self,
        frequencies_hz: FrequencyVector | Sequence[float],
        channels: ComplexCSIStack | Sequence[Sequence[complex]],
        exponent: int = 2,
        calibrations: Sequence[LinkCalibration] | None = None,
        hints: Sequence[SolveHint | None] | None = None,
        warm_stats_out: list[WarmStartStats] | None = None,
    ) -> list[TofEstimate]:
        """ToF for ``N`` links from stacked band products.

        The batched counterpart of
        :meth:`~repro.core.tof.TofEstimator.estimate_from_products`.

        Args:
            frequencies_hz: Band center frequencies shared by all links.
            channels: ``(n_links, n_bands)`` averaged reciprocity
                products, one row per link.
            exponent: Delay-axis scale of the products (2 for the
                reciprocity square, 8 for the 2.4 GHz quirk's 4th power).
            calibrations: Optional per-link calibrations (identity when
                omitted).
            hints: Optional per-link raw-τ-domain temporal priors (see
                :class:`~repro.core.hints.SolveHint`).  Hinted and
                unhinted links coexist in one stacked solve; a stale
                hint degrades to that link's cold solve.
            warm_stats_out: Optional list this call appends its own
                :class:`~repro.core.hints.WarmStartStats` to — the
                race-free replacement for reading ``last_warm_stats``
                under concurrent solves.

        Returns:
            One :class:`TofEstimate` per row of ``channels``.

        Raises:
            ValueError: On malformed shapes, or before any kernel runs
                when rows fail :func:`unsolvable_reason`; the message
                names each such row and its reason.
        """
        freqs = np.asarray(frequencies_hz, dtype=float)
        stacked = np.asarray(channels, dtype=complex)
        if stacked.ndim != 2:
            raise ValueError(
                f"channels must be 2-D (n_links, n_bands), got {stacked.shape}"
            )
        if stacked.shape[1] != len(freqs):
            raise ValueError(
                f"channels have {stacked.shape[1]} bands but "
                f"{len(freqs)} frequencies were given"
            )
        n_links = stacked.shape[0]
        unsolvable = [
            f"row {i}: {reason}"
            for i, row in enumerate(stacked)
            if (reason := unsolvable_reason(row)) is not None
        ]
        if unsolvable:
            raise ValueError(
                f"{len(unsolvable)} of {n_links} rows cannot be solved: "
                + "; ".join(unsolvable)
            )
        cals = self._check_calibrations(calibrations, n_links)
        hint_list = ensure_hints(hints, n_links)
        telemetry = _WarmTelemetry()
        with timed_span(
            "engine.solve",
            "engine.solve_s",
            {"method": self.config.method, "kind": "products"},
            n_links=n_links,
        ):
            groups = self._estimate_group_stack(
                "direct", freqs, stacked, exponent, [None] * n_links,
                hints=hint_list, telemetry=telemetry,
            )
        estimates: list[TofEstimate] = []
        for group, cal in zip(groups, cals, strict=True):
            raw = group.tof_s
            estimates.append(
                TofEstimate(
                    tof_s=cal.apply(raw),
                    raw_tof_s=raw,
                    groups=(group,),
                    n_bands=group.n_bands,
                )
            )
        self._publish_warm(
            telemetry.snapshot(n_links, hint_list), warm_stats_out
        )
        return estimates

    def estimate_sweeps_batch(
        self,
        sweeps_per_link: Sequence[Sequence[CsiSweep]],
        calibrations: Sequence[LinkCalibration] | None = None,
        hints: Sequence[SolveHint | None] | None = None,
        warm_stats_out: list[WarmStartStats] | None = None,
    ) -> list[TofEstimate]:
        """ToF for ``N`` links from their CSI sweeps.

        The batched counterpart of
        :meth:`~repro.core.tof.TofEstimator.estimate_many`: per link,
        the same coarse slope gate and per-group product averaging; then
        all (link, band group) inversions that share a frequency set are
        solved in one batched run, and the per-link group estimates are
        fused and calibrated exactly as the scalar path does.

        Args:
            sweeps_per_link: For each link, the sweeps to average.
            calibrations: Optional per-link calibrations (identity when
                omitted).
            hints: Optional per-link raw-τ-domain temporal priors; each
                link's hint warm-starts every band group it lands in
                (the engine rescales per group exponent).
            warm_stats_out: Optional list this call appends its own
                :class:`~repro.core.hints.WarmStartStats` to — the
                race-free replacement for reading ``last_warm_stats``
                under concurrent solves.

        Returns:
            One :class:`TofEstimate` per link, in input order.
        """
        est = self._estimator
        n_links = len(sweeps_per_link)
        cals = self._check_calibrations(calibrations, n_links)
        hint_list = ensure_hints(hints, n_links)
        telemetry = _WarmTelemetry()

        with timed_span(
            "engine.solve",
            "engine.solve_s",
            {"method": self.config.method, "kind": "sweeps"},
            n_links=n_links,
        ):
            # Per-link preprocessing, via the scalar estimator's own
            # helper (single source of the gating/grouping semantics).
            coarse_rts: list[float | None] = []
            link_jobs: list[
                list[tuple[str, FrequencyVector, ComplexCSI, int, float | None]]
            ]
            link_jobs = []
            for i, sweeps in enumerate(sweeps_per_link):
                sweep_list = list(sweeps)
                if not sweep_list:
                    raise ValueError(f"link {i}: need at least one sweep")
                coarse_rt, jobs = est._link_jobs(sweep_list, cals[i])
                coarse_rts.append(coarse_rt)
                link_jobs.append(jobs)

            # Shard the (link, group) jobs by frequency set so each shard
            # shares one cached operator and one batched inversion.
            shards: dict[tuple[str, bytes], list[tuple[int, int]]] = {}
            for i, jobs in enumerate(link_jobs):
                for j, (name, freqs, _, _, _) in enumerate(jobs):
                    shards.setdefault((name, freqs.tobytes()), []).append((i, j))

            group_results: dict[tuple[int, int], GroupEstimate] = {}
            for (name, _), members in shards.items():
                first_i, first_j = members[0]
                freqs = link_jobs[first_i][first_j][1]
                exponent = link_jobs[first_i][first_j][3]
                stacked = np.vstack([link_jobs[i][j][2] for i, j in members])
                gates = [link_jobs[i][j][4] for i, j in members]
                groups = self._estimate_group_stack(
                    name, freqs, stacked, exponent, gates,
                    hints=[hint_list[i] for i, _ in members],
                    telemetry=telemetry,
                )
                for (i, j), group in zip(members, groups, strict=True):
                    group_results[(i, j)] = group

            estimates = []
            for i in range(n_links):
                groups = [group_results[(i, j)] for j in range(len(link_jobs[i]))]
                if not groups:
                    raise ValueError(f"link {i}: no usable band group in the sweep")
                raw = est._fuse(groups)
                estimates.append(
                    TofEstimate(
                        tof_s=cals[i].apply(raw),
                        raw_tof_s=raw,
                        groups=tuple(groups),
                        n_bands=sum(g.n_bands for g in groups),
                        coarse_round_trip_s=coarse_rts[i],
                    )
                )
        self._publish_warm(
            telemetry.snapshot(n_links, hint_list), warm_stats_out
        )
        return estimates

    def report(self) -> dict:
        """Observability snapshot: engine config + the ``engine.*`` series.

        The bottom rung of the uniform per-layer ``report()`` ladder
        (engine → service → stream → loc).  ``warm_stats`` is the
        deprecated best-effort mirror of the most recent public call;
        the registry series are the authoritative cumulative view.
        """
        return {
            "layer": "engine",
            "method": self.config.method,
            "warm_stats": dataclasses.asdict(self.last_warm_stats),
            "metrics": REGISTRY.snapshot(prefix="engine."),
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _kernel_span(self, stage: str, n_links: int):
        """Span + ``engine.kernel_s{stage,method}`` timer for one stage.

        Stage spans nest under the ambient ``engine.solve`` span of the
        public call, so a trace shows the per-stage split of each solve
        while the histogram accumulates it across calls.
        """
        return timed_span(
            f"engine.kernel.{stage}",
            "engine.kernel_s",
            {"stage": stage, "method": self.config.method},
            n_links=n_links,
        )

    def _publish_warm(
        self,
        stats: WarmStartStats,
        warm_stats_out: list[WarmStartStats] | None,
    ) -> None:
        """Fan one call's warm-start telemetry to every consumer.

        Appends to the caller's ``warm_stats_out`` (the race-free
        per-call channel), folds the counts into the ``engine.*``
        registry series, and refreshes the deprecated
        ``last_warm_stats`` mirror.
        """
        if warm_stats_out is not None:
            warm_stats_out.append(stats)
        method = self.config.method
        REGISTRY.inc("engine.links_warm_total", stats.n_hinted, method=method)
        REGISTRY.inc(
            "engine.links_cold_total",
            stats.n_links - stats.n_hinted,
            method=method,
        )
        if stats.n_stale:
            REGISTRY.inc(
                "engine.stale_fallbacks_total", stats.n_stale, method=method
            )
        for n_iterations in stats.fista_iterations:
            REGISTRY.observe(
                "engine.fista_iterations",
                float(n_iterations),
                buckets=COUNT_BUCKETS,
                method=method,
            )
        # COUNT_BUCKETS tops out below the default cap, so a solve that
        # ran out of iterations is invisible in the histogram alone.
        cap = self.config.sparse.max_iterations
        n_capped = sum(1 for n in stats.fista_iterations if n >= cap)
        if n_capped:
            REGISTRY.inc("engine.fista_cap_hits_total", n_capped, method=method)
        self.last_warm_stats = stats

    def _estimate_group_stack(
        self,
        name: str,
        freqs: FrequencyVector,
        stacked: ComplexCSIStack,
        exponent: int,
        gates: Sequence[float | None],
        hints: Sequence[SolveHint | None] | None = None,
        telemetry: "_WarmTelemetry | None" = None,
    ) -> list[GroupEstimate]:
        """One band group for every link at once.

        The ista method runs one batched Algorithm 1 inversion over the
        whole stack, then applies the scalar peak/gate/refine logic per
        link.  The hybrid method runs the batched deflation kernel over
        the stack (:meth:`_hybrid_group_stack`).  Any other method falls
        back to the scalar group estimator link by link, riding on the
        operator cache.

        ``hints`` arrive in the raw τ domain and are scaled into this
        group's delay domain here (``exponent × τ``).
        """
        est = self._estimator
        cfg = self.config
        n_links = stacked.shape[0]
        hint_list = ensure_hints(hints, n_links)
        telemetry = telemetry if telemetry is not None else _WarmTelemetry()
        if cfg.method == "hybrid":
            return self._hybrid_group_stack(
                name, freqs, stacked, exponent, gates, hint_list, telemetry
            )
        if cfg.method != "ista":
            return [
                est._estimate_group(
                    name, freqs, stacked[i], exponent, gates[i],
                    hint=hint_list[i],
                )
                for i in range(n_links)
            ]
        coarse_mask = est._coarse_mask(freqs)
        coarse_freqs = freqs[coarse_mask]
        coarse_stack = np.ascontiguousarray(stacked[:, coarse_mask])
        window = capped_window_s(coarse_freqs, cfg.max_profile_delay_s)
        op = get_grid_operator(coarse_freqs, window, cfg.grid_step_s)
        scaled = [
            h.scaled(float(exponent)) if h is not None else None
            for h in hint_list
        ]
        # ista consumes hints as a FISTA seed only: the convex solve
        # lands at the same fixed point either way (within the solver's
        # stop tolerance), so no staleness machinery is needed.
        initial = self._warm_initial(op, coarse_stack, scaled)
        iterations = np.zeros(n_links, dtype=np.int64)
        with self._kernel_span("fista", n_links):
            solutions = invert_ndft_batch(
                coarse_stack, coarse_freqs, op.taus_s, cfg.sparse, operator=op,
                initial=initial, iterations_out=iterations,
            )
        telemetry.iterations.extend(int(v) for v in iterations)
        span = float(freqs.max() - freqs.min())
        groups: list[GroupEstimate] = []
        with self._kernel_span("peak_select", n_links):
            for i in range(n_links):
                profile = MultipathProfile(
                    op.taus_s,
                    solutions[i],
                    dominance_threshold_rel=cfg.peak_threshold_rel,
                )
                delay = est._ista_delay(profile, freqs, stacked[i], gates[i])
                groups.append(
                    GroupEstimate(
                        name=name,
                        tof_s=delay / exponent,
                        span_hz=span,
                        n_bands=len(freqs),
                        exponent=exponent,
                        profile=profile,
                    )
                )
        return groups

    def _hybrid_group_stack(
        self,
        name: str,
        freqs: FrequencyVector,
        stacked: ComplexCSIStack,
        exponent: int,
        gates: Sequence[float | None],
        hints: Sequence[SolveHint | None],
        telemetry: "_WarmTelemetry",
    ) -> list[GroupEstimate]:
        """The hybrid (deflation) method over the whole stack.

        Mirrors the hybrid branch of
        :meth:`~repro.core.tof.TofEstimator._estimate_group` stage for
        stage: batched greedy extraction on the coarse band set, batched
        ghost pruning with the per-link slope targets, the optional
        full-aperture refit, the first-peak rule, and — when diagnostic
        profiles are requested — one batched Algorithm 1 inversion in
        place of the scalar path's per-link one.

        Warm starts ride the extraction (windowed matched filter, with
        the kernel's cold fallback for stale hints) and the diagnostic
        profile inversion (hinted iterate, skipped for links the
        extraction flagged stale so their profiles stay exactly cold).
        """
        est = self._estimator
        cfg = self.config
        n_links = stacked.shape[0]
        coarse_mask = est._coarse_mask(freqs)
        coarse_freqs = freqs[coarse_mask]
        coarse_stack = np.ascontiguousarray(stacked[:, coarse_mask])
        window = capped_window_s(coarse_freqs, cfg.max_profile_delay_s)

        scaled = [
            h.scaled(float(exponent)) if h is not None else None for h in hints
        ]
        stale = np.zeros(n_links, dtype=bool)
        with self._kernel_span("extract", n_links):
            paths_per_link = extract_paths_batch(
                coarse_stack, coarse_freqs, window, cfg.deflation,
                hints=scaled, stale_out=stale,
            )
        telemetry.n_stale += int(stale.sum())
        targets = [
            gate_target_mean_s(gate, cfg.coarse_gate_margin_s, exponent)
            for gate in gates
        ]
        with self._kernel_span("prune", n_links):
            paths_per_link = prune_ghost_atoms_batch(
                paths_per_link,
                coarse_stack,
                coarse_freqs,
                ghost_shifts_s(coarse_freqs, window),
                max_delay_s=window,
                final_alpha_rel=cfg.deflation.final_alpha_rel,
                target_mean_delays_s=targets,
            )
        if not coarse_mask.all():
            # The refit joins the lockstep fast path too: the scalar
            # per-link loop here was the mixed-aperture throughput
            # dilution the benchmark's hybrid_mixed_aperture series
            # tracks.
            with self._kernel_span("refit", n_links):
                paths_per_link = full_aperture_refit_batch(
                    paths_per_link,
                    freqs,
                    stacked,
                    final_alpha_rel=cfg.deflation.final_alpha_rel,
                    max_delay_s=window,
                )
        with self._kernel_span("first_path", n_links):
            delays = first_path_delays_batch(
                paths_per_link,
                cfg.first_peak_amplitude_rel,
                min_delays_s=[gate or 0.0 for gate in gates],
                soft_window_s=SOFT_GATE_WINDOW_S * exponent / 2.0,
                soft_amplitude_rel=SOFT_GATE_AMPLITUDE_REL,
            )

        with self._kernel_span("profile", n_links):
            if cfg.compute_profile:
                op = get_grid_operator(coarse_freqs, window, cfg.grid_step_s)
                # Stale-flagged links get a zero seed row, i.e. the exact
                # cold profile — their hint already failed once this call.
                initial = self._warm_initial(
                    op, coarse_stack, scaled, skip=stale,
                    fresh_paths=paths_per_link,
                )
                iterations = np.zeros(n_links, dtype=np.int64)
                solutions = invert_ndft_batch(
                    coarse_stack, coarse_freqs, op.taus_s, cfg.sparse,
                    operator=op, initial=initial, iterations_out=iterations,
                )
                telemetry.iterations.extend(int(v) for v in iterations)
                profiles = [
                    MultipathProfile(
                        op.taus_s,
                        solutions[i],
                        dominance_threshold_rel=cfg.peak_threshold_rel,
                    )
                    for i in range(n_links)
                ]
            else:
                profiles = [
                    est._make_profile(
                        window, coarse_freqs, coarse_stack[i], paths_per_link[i]
                    )
                    for i in range(n_links)
                ]
        span = float(freqs.max() - freqs.min())
        return [
            GroupEstimate(
                name=name,
                tof_s=float(delays[i]) / exponent,
                span_hz=span,
                n_bands=len(freqs),
                exponent=exponent,
                profile=profiles[i],
                paths=tuple(paths_per_link[i]),
                residual_rel=paths_residual_rel(
                    freqs, stacked[i], paths_per_link[i]
                ),
            )
            for i in range(n_links)
        ]

    @staticmethod
    def _warm_initial(
        op: NdftOperator,
        coarse_stack: ComplexCSIStack,
        scaled_hints: Sequence[SolveHint | None],
        skip: BoolMask | None = None,
        fresh_paths: Sequence[Sequence[RefinedPath]] | None = None,
    ) -> ComplexProfileStack | None:
        """Per-link FISTA seed rows from group-domain hints.

        A link's candidate seeds, in precedence order: its hint's
        profile iterate when that iterate lives on this operator's grid
        (same length — band plan and window unchanged since the
        previous solve); its hinted paths rasterized onto the grid; and
        — in the hybrid path, where the hint-guided extraction has
        already run on *this* snapshot — the freshly extracted paths.
        The first seed explaining at least half the channel power wins
        (one small GEMV per candidate): a link whose channel moved
        since the hint was minted fails the first two guards (stale
        amplitudes decorrelate across the aperture) but still warms
        from the fresh extraction, while seeding FISTA worse than zero
        would *add* iterations, so with every candidate rejected the
        link silently degrades to the cold start.  Returns ``None``
        when no link contributes a seed.
        """
        taus = op.taus_s

        def rasterize(
            delays: Sequence[float], amplitudes: Sequence[complex]
        ) -> ComplexProfile:
            seed = np.zeros(len(taus), dtype=complex)
            for d, a in zip(delays, amplitudes, strict=True):
                seed[int(np.argmin(np.abs(taus - d)))] += a
            return seed

        candidates: dict[int, list[ComplexProfile]] = {}
        for i, hint in enumerate(scaled_hints):
            if hint is None or (skip is not None and skip[i]):
                continue
            seeds: list[ComplexProfile] = []
            iterate = hint.profile_iterate
            if iterate is not None and len(iterate) == len(taus):
                seeds.append(np.asarray(iterate, dtype=complex))
            if hint.path_delays_s and hint.path_amplitudes:
                seeds.append(
                    rasterize(hint.path_delays_s, hint.path_amplitudes)
                )
            if fresh_paths is not None and fresh_paths[i]:
                seeds.append(
                    rasterize(
                        [p.delay_s for p in fresh_paths[i]],
                        [p.amplitude for p in fresh_paths[i]],
                    )
                )
            if seeds:
                candidates[i] = seeds
        if not candidates:
            return None
        rows = np.zeros((len(scaled_hints), len(taus)), dtype=complex)
        tot2 = np.einsum("lb,lb->l", coarse_stack, coarse_stack.conj()).real
        for i, seeds in candidates.items():
            for seed in seeds:
                resid = coarse_stack[i] - op.F @ seed
                if np.vdot(resid, resid).real <= 0.5 * tot2[i]:
                    rows[i] = seed
                    break
        return rows

    @staticmethod
    def _check_calibrations(
        calibrations: Sequence[LinkCalibration] | None, n_links: int
    ) -> list[LinkCalibration]:
        """Per-link calibrations, defaulted to identity."""
        if calibrations is None:
            return [LinkCalibration() for _ in range(n_links)]
        cals = list(calibrations)
        if len(cals) != n_links:
            raise ValueError(
                f"got {len(cals)} calibrations for {n_links} links"
            )
        return cals
