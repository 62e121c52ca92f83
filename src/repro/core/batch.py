"""Batched time-of-flight ranging: N links estimated in one shot.

Chronos solves one sparse inversion per link — fine for reproducing the
paper's figures, hopeless for a ranging service handling many
concurrent links.  This module restructures that hot path around two
observations:

* Everything expensive that depends only on the *band plan* — the NDFT
  matrix ``F``, its adjoint, its Lipschitz constant (a full SVD) and the
  matched-filter grids — is shared by every link on that plan.  The
  engine pulls all of it from the process-wide operator cache
  (:mod:`repro.core.ndft`), so a batch pays the construction cost once.

* The Algorithm 1 inversion itself vectorizes: stacking the per-link
  channel vectors into an ``(n_links, n_bands)`` array turns the
  per-iteration matrix products into single GEMMs over every
  still-active link (:func:`repro.core.sparse.invert_ndft_batch`).

Per-link semantics are unchanged: the one-link
:class:`~repro.core.tof.TofEstimator` API is literally the ``N = 1``
call of this engine, and the engine takes its grouping, gating,
peak-selection and fusion policy from that class, so a link solved
alone and the same link inside a batch agree to floating-point noise
(the batch regression tests pin the agreement at 1e-12 seconds).

Both estimation methods are batch-first.  ``method="ista"`` runs one
batched Algorithm 1 inversion over the stack.  ``method="hybrid"`` (the
default) runs the batched greedy deflation kernel
(:func:`repro.core.deflation_batch.extract_paths_batch`) — matched
filtering as one GEMM over the stacked residuals, a lockstep
golden-section polish with per-link freezing — followed by the batched
ghost-prune/first-path application and, when diagnostic profiles are
requested, one batched L1 inversion over the rows that are their
link's primary band group, the one :attr:`TofEstimate.profile`
returns.
"""

from __future__ import annotations

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
from repro.core.ndft import capped_window_s, get_grid_operator
from repro.obs import COUNT_BUCKETS, REGISTRY, timed_span
from repro.core.profile import MultipathProfile
from repro.core.sparse import invert_ndft_batch
from repro.core.tof import (
    GroupEstimate,
    TofEstimate,
    TofEstimator,
    TofEstimatorConfig,
    primary_index,
)
from repro.core.typing import BoolMask, ComplexCSI, ComplexCSIStack, FrequencyVector
from repro.wifi.csi import CsiSweep


def unsolvable_reason(products: ComplexCSI) -> str | None:
    """Why one link's band products cannot be solved, or ``None``.

    Two conditions fail both estimation methods (hybrid and ista) on a
    row, whatever else shares its batch:

    * a non-finite entry (NaN or Inf), as from a corrupted measurement;
    * no signal power: the sum of ``|product|²`` is zero, as for a dead
      radio's all-zero row, or a row so faint that the squares
      underflow.  The deflation kernel drops links by the same sum.

    The engine screens every product row, and every band group of a
    sweep link, with it and raises :class:`UnsolvableLinks` before any
    kernel runs.  A row it passes can still fail inside a kernel;
    :func:`repro.net.service.solve_isolated` covers those.
    """
    if not np.isfinite(products).all():
        return "non-finite products (NaN or Inf)"
    if np.vdot(products, products).real == 0.0:
        return "no signal power (all products zero)"
    return None


class UnsolvableLinks(ValueError):
    """Raised before any kernel runs: ``reasons`` maps each link of the
    call that cannot be solved (its row, or its place in
    ``sweeps_per_link``) to why."""

    def __init__(self, message: str, reasons: dict[int, str]) -> None:
        super().__init__(message)
        self.reasons = reasons


class BatchTofEngine:
    """Estimates time-of-flight for a stack of links sharing a band plan.

    Args:
        config: Estimator settings, shared by every link in a batch.
            Per-link state (calibration) is passed per call instead.
    """

    def __init__(self, config: TofEstimatorConfig | None = None):
        self.config = config or TofEstimatorConfig()
        # The estimator supplies every per-link policy (grouping, peak
        # selection, gating, fusion).  Its calibration stays identity;
        # the engine applies per-link calibrations itself.
        self._estimator = TofEstimator(self.config)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def estimate_products_batch(
        self,
        frequencies_hz: FrequencyVector | Sequence[float],
        channels: ComplexCSIStack | Sequence[Sequence[complex]],
        exponent: int = 2,
        calibrations: Sequence[LinkCalibration] | None = None,
    ) -> list[TofEstimate]:
        """ToF for ``N`` links from stacked band products.

        :meth:`~repro.core.tof.TofEstimator.estimate_from_products` is
        the one-link call.

        Args:
            frequencies_hz: Band center frequencies shared by all links.
            channels: ``(n_links, n_bands)`` averaged reciprocity
                products, one row per link.
            exponent: Delay-axis scale of the products (2 for the
                reciprocity square, 8 for the 2.4 GHz quirk's 4th power).
            calibrations: Optional per-link calibrations (identity when
                omitted).

        Returns:
            One :class:`TofEstimate` per row of ``channels``.

        Raises:
            ValueError: On malformed shapes, or an ``exponent`` that is
                not a positive integer.
            UnsolvableLinks: Before any kernel runs, when rows fail
                :func:`unsolvable_reason`; the message and ``reasons``
                name each such row and its reason.
        """
        if (
            isinstance(exponent, bool)
            or not isinstance(exponent, (int, np.integer))
            or exponent < 1
        ):
            raise ValueError(f"exponent must be a positive integer, got {exponent!r}")
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
        reasons = {
            i: reason
            for i, row in enumerate(stacked)
            if (reason := unsolvable_reason(row)) is not None
        }
        if reasons:
            raise UnsolvableLinks(
                f"{len(reasons)} of {n_links} rows cannot be solved: "
                + "; ".join(f"row {i}: {reason}" for i, reason in reasons.items()),
                reasons,
            )
        cals = self._check_calibrations(calibrations, n_links)
        iterations: list[int] = []
        with timed_span(
            "engine.solve",
            "engine.solve_s",
            {"method": self.config.method, "kind": "products"},
            n_links=n_links,
        ):
            groups = self._estimate_group_stack(
                "direct", freqs, stacked, exponent, [None] * n_links, iterations
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
        self._record_fista(iterations)
        return estimates

    def estimate_sweeps_batch(
        self,
        sweeps_per_link: Sequence[Sequence[CsiSweep]],
        calibrations: Sequence[LinkCalibration] | None = None,
    ) -> list[TofEstimate]:
        """ToF for ``N`` links from their CSI sweeps.

        Per link, the coarse slope gate and per-group product averaging;
        then all (link, band group) rows that share a frequency set are
        solved in one batched run, and each link's group estimates are
        fused and calibrated.  The hybrid method solves the L1 profile
        only for each link's primary group.
        :meth:`~repro.core.tof.TofEstimator.estimate_many` is the
        one-link call.

        Args:
            sweeps_per_link: For each link, the sweeps to average.
            calibrations: Optional per-link calibrations (identity when
                omitted).

        Returns:
            One :class:`TofEstimate` per link, in input order.

        Raises:
            UnsolvableLinks: Before any kernel runs, naming each link
                the front end rejects (non-finite CSI), that has no
                usable band group, or whose band-group products fail
                :func:`unsolvable_reason`, as for a dead radio's sweep.
        """
        est = self._estimator
        n_links = len(sweeps_per_link)
        cals = self._check_calibrations(calibrations, n_links)
        iterations: list[int] = []

        with timed_span(
            "engine.solve",
            "engine.solve_s",
            {"method": self.config.method, "kind": "sweeps"},
            n_links=n_links,
        ):
            # Per-link preprocessing (the estimator's helper is the
            # single source of the gating/grouping semantics).
            coarse_rts: list[float | None] = []
            link_jobs: list[
                list[tuple[str, FrequencyVector, ComplexCSI, int, float | None]]
            ]
            link_jobs = []
            # Every failure the screen sees, as (link, "(<name> group): "
            # or "", reason), so one raise names them all.
            failures: list[tuple[int, str, str]] = []
            for i, sweeps in enumerate(sweeps_per_link):
                try:
                    coarse_rt, jobs = est._link_jobs(list(sweeps), cals[i])
                except ValueError as exc:  # the front end's named rejection
                    failures.append((i, "", str(exc)))
                    coarse_rt, jobs = None, []
                else:
                    if not jobs:
                        failures.append((i, "", "no usable band group in the sweep"))
                    failures.extend(
                        (i, f"({name} group): ", reason)
                        for name, _, products, _, _ in jobs
                        if (reason := unsolvable_reason(products)) is not None
                    )
                coarse_rts.append(coarse_rt)
                link_jobs.append(jobs)
            if failures:
                # A link without band-group rows counts as one row.
                n_rows = sum(max(len(jobs), 1) for jobs in link_jobs)
                per_link: dict[int, list[str]] = {}
                for i, group, reason in failures:
                    per_link.setdefault(i, []).append(group + reason)
                raise UnsolvableLinks(
                    f"{len(failures)} of {n_rows} band-group rows cannot be "
                    "solved: "
                    + "; ".join(
                        f"link {i} {group}{reason}" if group else f"link {i}: {reason}"
                        for i, group, reason in failures
                    ),
                    {i: "; ".join(named) for i, named in per_link.items()},
                )

            # Shard the (link, group) jobs by frequency set so each shard
            # shares one cached operator and one batched inversion.
            shards: dict[tuple[str, bytes], list[tuple[int, int]]] = {}
            primary: list[int] = []
            for i, jobs in enumerate(link_jobs):
                for j, (name, freqs, _, _, _) in enumerate(jobs):
                    shards.setdefault((name, freqs.tobytes()), []).append((i, j))
                primary.append(
                    primary_index(
                        [float(freqs.max() - freqs.min()) for _, freqs, *_ in jobs]
                    )
                )

            group_results: dict[tuple[int, int], GroupEstimate] = {}
            for (name, _), members in shards.items():
                first_i, first_j = members[0]
                freqs = link_jobs[first_i][first_j][1]
                exponent = link_jobs[first_i][first_j][3]
                stacked = np.vstack([link_jobs[i][j][2] for i, j in members])
                gates = [link_jobs[i][j][4] for i, j in members]
                is_primary = np.array([j == primary[i] for i, j in members])
                groups = self._estimate_group_stack(
                    name, freqs, stacked, exponent, gates, iterations, is_primary
                )
                for (i, j), group in zip(members, groups, strict=True):
                    group_results[(i, j)] = group

            estimates = []
            for i in range(n_links):
                groups = [group_results[(i, j)] for j in range(len(link_jobs[i]))]
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
        self._record_fista(iterations)
        return estimates

    def report(self) -> dict:
        """Observability snapshot: engine config + the ``engine.*`` series.

        The bottom rung of the uniform per-layer ``report()`` ladder
        (engine → service → stream → loc).
        """
        return {
            "layer": "engine",
            "method": self.config.method,
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

    def _record_fista(self, iterations: list[int]) -> None:
        """Fold one call's FISTA iteration counts into ``engine.*``.

        ``iterations`` holds one entry per L1 profile inversion the call
        ran: every (link, band group) row under ista, each link's primary
        group under hybrid.
        """
        method = self.config.method
        for n_iterations in iterations:
            REGISTRY.observe(
                "engine.fista_iterations",
                float(n_iterations),
                buckets=COUNT_BUCKETS,
                method=method,
            )
        # COUNT_BUCKETS tops out below the default cap, so a solve that
        # ran out of iterations is invisible in the histogram alone.
        cap = self.config.sparse.max_iterations
        n_capped = sum(1 for n in iterations if n >= cap)
        if n_capped:
            REGISTRY.inc("engine.fista_cap_hits_total", n_capped, method=method)

    def _estimate_group_stack(
        self,
        name: str,
        freqs: FrequencyVector,
        stacked: ComplexCSIStack,
        exponent: int,
        gates: Sequence[float | None],
        iterations: list[int],
        is_primary: BoolMask | None = None,
    ) -> list[GroupEstimate]:
        """One band group for every link at once.

        The ista method runs one batched Algorithm 1 inversion over the
        whole stack, then applies the estimator's peak/gate/refine logic
        per link.  The hybrid method runs the batched deflation kernel over
        the stack (:meth:`_hybrid_group_stack`), and solves the L1 profile
        of the rows ``is_primary`` marks, those that are their link's
        primary group (every row when omitted, as in a products call:
        one group per link).  Each profile inversion appends its
        per-link FISTA iteration counts to ``iterations``.
        """
        est = self._estimator
        cfg = self.config
        n_links = stacked.shape[0]
        if cfg.method == "hybrid":
            return self._hybrid_group_stack(
                name, freqs, stacked, exponent, gates, iterations, is_primary
            )
        coarse_mask = est._coarse_mask(freqs)
        coarse_freqs = freqs[coarse_mask]
        coarse_stack = np.ascontiguousarray(stacked[:, coarse_mask])
        window = capped_window_s(coarse_freqs, cfg.max_profile_delay_s)
        op = get_grid_operator(coarse_freqs, window, cfg.grid_step_s)
        counts = np.zeros(n_links, dtype=np.int64)
        with self._kernel_span("fista", n_links):
            solutions = invert_ndft_batch(
                coarse_stack, coarse_freqs, op.taus_s, cfg.sparse, operator=op,
                iterations_out=counts,
            )
        iterations.extend(int(v) for v in counts)
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
        iterations: list[int],
        is_primary: BoolMask | None = None,
    ) -> list[GroupEstimate]:
        """The hybrid (deflation) method over the whole stack.

        A delay grid coarse enough to be tractable cannot represent an
        off-grid atom across a multi-GHz stitched aperture: the residual
        sub-grid offset rotates the highest band by several radians and
        the best on-grid explanation becomes a CRT pseudo-alias hundreds
        of ns away.  The cure mirrors the CRT structure itself: extract
        paths on the widest *5-MHz-gridded* subgroup (the 5 GHz bands —
        aperture 645 MHz, safely representable on a 0.5 ns grid), then
        refit them off-grid against **all** bands, gaining the full
        stitched-aperture resolution without its grid pathology.

        Stage by stage: batched greedy extraction on the coarse band
        set, batched ghost pruning with the per-link slope targets, the
        full-aperture refit when the coarse set is partial, the
        first-peak rule, and the diagnostic profiles.  When they are
        requested, one batched Algorithm 1 inversion solves the rows
        ``is_primary`` marks (every row when omitted), the profiles
        :attr:`TofEstimate.profile` returns; every other row's profile is
        rasterized from its paths.
        """
        est = self._estimator
        cfg = self.config
        n_links = stacked.shape[0]
        coarse_mask = est._coarse_mask(freqs)
        coarse_freqs = freqs[coarse_mask]
        coarse_stack = np.ascontiguousarray(stacked[:, coarse_mask])
        window = capped_window_s(coarse_freqs, cfg.max_profile_delay_s)

        with self._kernel_span("extract", n_links):
            paths_per_link = extract_paths_batch(
                coarse_stack,
                coarse_freqs,
                window,
                cfg.deflation,
                amplitude_keep_rel=cfg.first_peak_amplitude_rel,
            )
        # Sparse channels stop at their components, far below the atom
        # budget; a link that spends all of it is either richer than
        # the budget or fitting noise the signal floor let through.
        n_full = sum(
            1 for paths in paths_per_link if len(paths) == cfg.deflation.max_paths
        )
        if n_full:
            REGISTRY.inc(
                "engine.deflation_budget_hits_total", n_full, method=cfg.method
            )
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
            if is_primary is None:
                is_primary = np.ones(n_links, dtype=bool)
            rows = np.flatnonzero(is_primary & cfg.compute_profile)
            solved: dict[int, MultipathProfile] = {}
            if rows.size:
                op = get_grid_operator(coarse_freqs, window, cfg.grid_step_s)
                counts = np.zeros(rows.size, dtype=np.int64)
                solutions = invert_ndft_batch(
                    coarse_stack[rows], coarse_freqs, op.taus_s, cfg.sparse,
                    operator=op, iterations_out=counts,
                )
                iterations.extend(int(v) for v in counts)
                solved = {
                    int(i): MultipathProfile(
                        op.taus_s,
                        solution,
                        dominance_threshold_rel=cfg.peak_threshold_rel,
                    )
                    for i, solution in zip(rows, solutions, strict=True)
                }
            profiles = [
                solved[i] if i in solved else est._make_profile(window, paths)
                for i, paths in enumerate(paths_per_link)
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
            )
            for i in range(n_links)
        ]

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
