"""Greedy off-grid path extraction for stacks of links.

The accuracy core of the default ``method="hybrid"`` estimator
(:mod:`repro.core.deflation` explains why it extracts off-grid): per
link,

1. matched-filter the residual on a grid fine enough that the true
   (continuous) delay is represented almost losslessly,
2. polish the winning delay continuously (golden-section),
3. jointly least-squares re-fit all amplitudes, deflate, repeat until
   the next atom falls below the signal floor
   (:func:`repro.core.deflation.signal_floor_rel`) or the atom budget
   is spent.

Because every extracted atom matches its component exactly (no grid
quantization), nothing leaks onto pseudo-aliases, and the residual after
the true components is pure noise.

Run one link at a time, that loop is one matched-filter GEMV, one
17-point scan and ~60 golden-section correlation evaluations per
extracted atom, each a separate tiny NumPy call; the interpreter
overhead of those calls, not the flops, would dominate.  So every
kernel here runs ``N`` links in lockstep, following the freezing
discipline of :func:`repro.core.sparse.invert_ndft_batch`:

* the matched-filter scan over the stacked residuals is one GEMM with
  the cached operator's adjoint (``|Fᴴ R|`` for all links at once);
* the continuous polish advances **all active links one golden-section
  bracket step per iteration** — each iteration evaluates exactly one
  new correlation point per link, for every link, in one vectorized
  sweep — and a link whose bracket has shrunk below tolerance freezes
  while the rest keep stepping;
* the per-link least-squares re-fits run over the stacked residuals
  link by link (the candidate supports are link-specific, and
  ``np.linalg.lstsq`` on a 35×k matrix is noise next to the scans);
* a link whose next atom falls below the signal floor — it removes
  less than ``amplitude_keep_rel² / max_paths`` of the link's input
  power or less than ``min_improvement_rel`` of the current residual —
  freezes at its current path list while the rest keep extracting, so
  a sparse link stops after its real components instead of running to
  the atom budget.

Every decision (grid argmax, polish bracket, improvement test, fallback
atom, final L1 amplitude fit) is taken per link on that link's own
values, so a row solved alone — the one-link
:class:`~repro.core.tof.TofEstimator` call — and the same row inside a
stack agree to floating-point noise (the regression tests pin delays at
1e-12 s and path counts exactly).
"""

from __future__ import annotations

from typing import cast

import numpy as np

from repro.analysis.contracts import shaped
from repro.core.deflation import (
    DeflationConfig,
    first_path_delay,
    matched_filter_grid,
    signal_floor_rel,
)
from repro.core.ndft import get_operator, ndft_matrix, steering_vector
from repro.core.profile import RefinedPath
from repro.core.typing import (
    ComplexCSI,
    ComplexCSIStack,
    ComplexProfile,
    DelayVector,
    FloatGrid,
    FloatVector,
    FrequencyVector,
)
from repro.obs import REGISTRY

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def extract_paths_batch(
    channels: ComplexCSIStack,
    frequencies_hz: FrequencyVector,
    max_delay_s: float,
    config: DeflationConfig | None = None,
    amplitude_keep_rel: float = 0.25,
) -> list[list[RefinedPath]]:
    """Greedy off-grid decomposition of every row of ``channels``.

    One path list per link, each equal (to floating-point noise) to
    what that row returns as a one-row stack.  Each link stops at its
    first atom that removes less than ``max(min_improvement_rel ×
    residual power, floor × input power)``, with the floor from
    :func:`repro.core.deflation.signal_floor_rel`, or when the atom
    budget is spent.

    Args:
        channels: ``(n_links, n_bands)`` stacked measurements.
        frequencies_hz: The shared non-uniform measurement frequencies.
        max_delay_s: Delay search window (the group's CRT-unique window).
        config: Extraction settings, shared by every link.
        amplitude_keep_rel: The first-path rule's amplitude cut, which
            sets the signal floor.

    Returns:
        For each link, paths sorted by delay with final joint-L1
        amplitudes — ``[]`` for an all-zero row, and always at least one
        path otherwise (the fallback atom below).
    """
    cfg = config or DeflationConfig()
    floor_rel = signal_floor_rel(amplitude_keep_rel, cfg.max_paths)
    H = np.asarray(channels, dtype=complex)
    freqs = np.asarray(frequencies_hz, dtype=float)
    if H.ndim != 2:
        raise ValueError(
            f"channels must be 2-D (n_links, n_bands), got {H.shape}"
        )
    if freqs.ndim != 1 or H.shape[1] != len(freqs):
        raise ValueError(
            f"channels have {H.shape[1:]} bands but {len(freqs)} "
            "frequencies were given"
        )
    if H.shape[1] < 3:
        raise ValueError("need at least 3 measurements to extract paths")
    if max_delay_s <= 0:
        raise ValueError(f"max delay must be positive, got {max_delay_s}")

    grid, grid_step = matched_filter_grid(freqs, max_delay_s, cfg)
    Fh = get_operator(freqs, grid).adjoint

    n_links = H.shape[0]
    total_power = np.einsum("lb,lb->l", H, H.conj()).real
    floor_power = floor_rel * total_power
    residual = H.copy()
    delays: list[list[float]] = [[] for _ in range(n_links)]
    active = np.flatnonzero(total_power > 0.0)
    for _ in range(cfg.max_paths):
        if active.size == 0:
            break
        live = residual[active]
        power = np.einsum("lb,lb->l", live, live.conj()).real
        keep = power > floor_power[active]
        active = active[keep]
        if active.size == 0:
            break
        # One GEMM scans the stack of residuals against the grid; each
        # output column depends only on its own link.
        corr = np.abs(Fh @ residual[active].T)
        tau0 = grid[np.argmax(corr, axis=0)]
        taus = _polish_batch(
            residual[active], freqs, tau0, grid_step, max_delay_s
        )
        # Per-link joint re-fit and acceptance test.  The supports are
        # link-specific (k delays each), so this stays a loop — over
        # tiny, over-determined systems.
        accepted: list[int] = []
        for pos, link in enumerate(active):
            previous_power = float(
                np.vdot(residual[link], residual[link]).real
            )
            candidate_delays = np.array(delays[link] + [float(taus[pos])])
            A = ndft_matrix(freqs, candidate_delays)
            candidate_amps, *_ = np.linalg.lstsq(A, H[link], rcond=None)
            new_residual = H[link] - A @ candidate_amps
            new_power = float(np.vdot(new_residual, new_residual).real)
            improvement = previous_power - new_power
            if improvement < max(
                cfg.min_improvement_rel * previous_power, floor_power[link]
            ):
                continue  # below the signal — freeze this link
            delays[link].append(float(taus[pos]))
            residual[link] = new_residual
            accepted.append(link)
        active = np.asarray(accepted, dtype=np.intp)

    results: list[list[RefinedPath]] = [[] for _ in range(n_links)]
    # Links whose first extraction step failed the improvement test get
    # a fallback: the single best-matching atom of the raw channel, so
    # callers always see at least one path.
    fallback = np.flatnonzero(
        (total_power > 0.0) & np.array([not d for d in delays], dtype=bool)
    )
    if fallback.size:
        corr = np.abs(Fh @ H[fallback].T)
        tau0 = grid[np.argmax(corr, axis=0)]
        taus = _polish_batch(H[fallback], freqs, tau0, grid_step, max_delay_s)
        for pos, link in enumerate(fallback):
            tau = float(taus[pos])
            a = np.vdot(steering_vector(freqs, tau), H[link]) / H.shape[1]
            results[link] = [RefinedPath(tau, complex(a))]
    fitted = [link for link in range(n_links) if delays[link]]
    amp_sets = lasso_amplitudes_batch(
        [np.asarray(delays[link]) for link in fitted],
        freqs,
        H[fitted],
        cfg.final_alpha_rel,
    )
    for link, amps in zip(fitted, amp_sets, strict=True):
        paths = [
            RefinedPath(float(d), complex(a))
            for d, a in zip(delays[link], amps, strict=True)
        ]
        paths.sort(key=lambda p: p.delay_s)
        results[link] = paths
    return results


def prune_ghost_atoms_batch(
    paths_per_link: list[list[RefinedPath]],
    channels: ComplexCSIStack,
    frequencies_hz: FrequencyVector,
    shifts_s: list[float],
    max_delay_s: float,
    final_alpha_rel: float = 0.1,
    target_mean_delays_s: list[float | None] | None = None,
) -> list[list[RefinedPath]]:
    """Relocate or remove atoms that are pseudo-aliases of real content.

    Per link, :func:`relocate_ghost_delays` moves each atom to its best
    placement among its ghost-shifted copies; then one batched L1 solve
    fits every link's final amplitudes, and :func:`finalize_pruned_paths`
    drops the atoms a relocation left redundant.  The shift family is a
    pure function of the band plan, so callers compute it once
    (:func:`repro.core.deflation.ghost_shifts_s`) for the whole stack.
    ``target_mean_delays_s`` carries each link's slope-derived mean
    delay target (``None`` for none).
    """
    H = np.asarray(channels, dtype=complex)
    if H.ndim != 2 or H.shape[0] != len(paths_per_link):
        raise ValueError(
            f"channels must be 2-D with one row per path list, got "
            f"{H.shape} for {len(paths_per_link)} links"
        )
    targets = target_mean_delays_s or [None] * len(paths_per_link)
    if len(targets) != len(paths_per_link):
        raise ValueError(
            f"got {len(targets)} target means for {len(paths_per_link)} links"
        )
    freqs = np.asarray(frequencies_hz, dtype=float)
    results = list(paths_per_link)  # empty path lists pass through unchanged
    if not shifts_s:
        return results
    relocated: dict[int, DelayVector] = {}
    for link, paths in enumerate(paths_per_link):
        if not paths:
            continue
        relocated[link] = relocate_ghost_delays(
            paths,
            H[link],
            freqs,
            shifts_s,
            max_delay_s,
            target_mean_delay_s=targets[link],
        )
    fitted = sorted(relocated)
    amp_sets = lasso_amplitudes_batch(
        [relocated[link] for link in fitted],
        freqs,
        H[fitted],
        final_alpha_rel,
    )
    for link, amps in zip(fitted, amp_sets, strict=True):
        results[link] = finalize_pruned_paths(relocated[link], amps)
    return results


def relocate_ghost_delays(
    paths: list[RefinedPath],
    h: ComplexCSI,
    freqs: FrequencyVector,
    shifts_s: list[float],
    max_delay_s: float,
    margin_rel: float = 0.05,
    merge_tolerance_s: float = 0.4e-9,
    target_mean_delay_s: float | None = None,
) -> DelayVector:
    """One link's ghost relocation sweeps: the pruned atom delays.

    Every atom is tested against copies of itself displaced by the known
    ghost shifts (both directions).  The placement that minimizes the
    joint least-squares residual wins.  When several placements fit
    within ``margin_rel`` of the best, the residual alone cannot decide
    (the lattice bands are blind to the shift); the tie-break then uses
    ``target_mean_delay_s`` — the slope-derived energy-weighted mean
    delay, which has **no lattice ambiguity**: the placement whose
    model-implied weighted mean best matches it wins.  A ghost displaced
    +50 ns of truth drags the model mean late of the slope estimate; a
    ghost at −50 ns drags it early; the true placement matches.  Without
    a target the latest admissible placement is kept (ghost energy
    belongs at the true, usually later, location).  Atoms relocated onto
    an existing neighbour merge into it.

    Each atom's whole candidate family is scored in one stacked solve
    (:func:`_candidate_fits`) instead of one ``lstsq`` call per
    candidate.
    """
    delays = np.array(sorted(p.delay_s for p in paths))
    for _ in range(3):  # a few sweeps; usually converges in one
        changed = False
        i = 0
        while i < len(delays):
            base = delays[i]
            candidates = [base]
            for shift in shifts_s:
                for signed in (base + shift, base - shift):
                    if 0.0 <= signed < max_delay_s:
                        candidates.append(signed)
            alt_sets = np.tile(delays, (len(candidates), 1))
            alt_sets[:, i] = candidates
            rss_all, mean_all = _candidate_fits(alt_sets, h, freqs)
            best_rss = float(np.min(rss_all))
            admissible = [
                (float(mean), c)
                for rss, mean, c in zip(rss_all, mean_all, candidates, strict=True)
                if rss <= best_rss * (1.0 + margin_rel)
            ]
            if target_mean_delay_s is not None:
                chosen = min(admissible, key=lambda mc: abs(mc[0] - target_mean_delay_s))[1]
            else:
                chosen = max(c for _, c in admissible)
            if abs(chosen - base) > 1e-15:
                changed = True
                near = np.abs(np.delete(delays, i) - chosen) < merge_tolerance_s
                if near.any():
                    delays = np.delete(delays, i)  # merged into neighbour
                    continue
                delays[i] = chosen
                delays = np.sort(delays)
            i += 1
        if not changed:
            break
    return delays


def finalize_pruned_paths(delays: DelayVector, amps: ComplexProfile) -> list[RefinedPath]:
    """Assemble pruned paths from relocated delays and final amplitudes."""
    result = [RefinedPath(float(d), complex(a)) for d, a in zip(delays, amps, strict=True)]
    # Relocated redundant ghosts end up with ~zero amplitude; drop them.
    peak = max(abs(p.amplitude) for p in result) if result else 0.0
    if peak > 0.0:
        cleaned = [p for p in result if abs(p.amplitude) >= 0.005 * peak]
        if cleaned:
            result = cleaned
    result.sort(key=lambda p: p.delay_s)
    return result


def first_path_delays_batch(
    paths_per_link: list[list[RefinedPath]],
    amplitude_keep_rel: float,
    min_delays_s: list[float] | None = None,
    soft_window_s: float = 0.0,
    soft_amplitude_rel: float = 0.5,
) -> DelayVector:
    """The paper's first-peak rule applied per link over a stack.

    ``min_delays_s`` carries each link's coarse gate (0 disables).
    Selection is a few comparisons per link — the batched form exists
    so the engine's hybrid fast path reads as one pipeline.
    """
    gates = min_delays_s or [0.0] * len(paths_per_link)
    if len(gates) != len(paths_per_link):
        raise ValueError(
            f"got {len(gates)} gates for {len(paths_per_link)} links"
        )
    return np.array(
        [
            first_path_delay(
                paths,
                amplitude_keep_rel,
                min_delay_s=gate,
                soft_window_s=soft_window_s,
                soft_amplitude_rel=soft_amplitude_rel,
            )
            for paths, gate in zip(paths_per_link, gates, strict=True)
        ]
    )


def lasso_amplitudes_batch(
    delay_sets: list[DelayVector],
    frequencies_hz: FrequencyVector,
    channels: ComplexCSIStack,
    alpha_rel: float,
    max_iterations: int = 400,
    tolerance_rel: float = 1e-6,
) -> list[ComplexProfile]:
    """L1-regularized amplitude fits for many links in one FISTA run.

    Link ``i`` minimizes ``½‖h − Ax‖² + α‖x‖₁`` over its own dictionary
    ``A = ndft_matrix(freqs, delay_sets[i])``, with ``h`` row ``i`` of
    ``channels`` and ``α = alpha_rel · max|Aᴴh|``.  The *final*
    amplitude estimate after greedy extraction: unlike plain least
    squares it does not split energy onto pseudo-alias atoms that
    merely correlate with a true component.  A link whose ``α`` is zero
    (a zero channel, or ``alpha_rel = 0``) gets the least-squares fit.
    The dictionaries are padded with all-zero columns to a common width
    — a zero column's gradient and iterate stay exactly zero, so
    padding never perturbs the live coefficients — and every link
    keeps its own ``α``, its own step size and its own stop test; a
    converged link freezes at that iterate while the rest keep
    iterating, so a link's fit does not depend on its stack.  Links
    still iterating at ``max_iterations`` keep their last iterate and
    are added to ``engine.lasso_cap_hits_total``.
    """
    n = len(delay_sets)
    ch = np.asarray(channels, dtype=complex)
    if ch.ndim != 2 or ch.shape[0] != n:
        raise ValueError(
            f"channels must be 2-D with one row per delay set, got "
            f"{ch.shape} for {n} sets"
        )
    freqs = np.asarray(frequencies_hz, dtype=float)
    # Filled link by link below; every index is assigned before return
    # (α = 0 links by least squares, α > 0 links via the lockstep
    # FISTA's freeze-out), hence the casts at the exits.
    results: list[ComplexProfile | None] = [None] * n
    widths = [len(d) for d in delay_sets]
    k_max = max(widths, default=0)
    if k_max == 0:
        return [np.zeros(0, dtype=complex) for _ in range(n)]
    A = np.zeros((n, len(freqs), k_max), dtype=complex)
    for i, d in enumerate(delay_sets):
        if widths[i]:
            A[i, :, : widths[i]] = ndft_matrix(freqs, np.asarray(d, dtype=float))
    corr = np.abs(np.einsum("nbk,nb->nk", A.conj(), ch))
    alphas = alpha_rel * corr.max(axis=1)
    for i in np.flatnonzero(alphas == 0.0):
        results[i] = np.linalg.lstsq(A[i, :, : widths[i]], ch[i], rcond=None)[0]
    active = np.flatnonzero(alphas > 0.0)
    if active.size == 0:
        return cast("list[ComplexProfile]", results)
    # Zero padding columns leave the largest singular value unchanged,
    # so each link's FISTA step size is that of its own dictionary.
    top_sv = np.linalg.svd(A[active], compute_uv=False)[:, 0]
    gammas = 1.0 / top_sv**2
    A_a = A[active]
    H_a = ch[active]
    thr = gammas * alphas[active]
    gam = gammas[:, None]
    X = np.zeros((active.size, k_max), dtype=complex)
    Y = X
    t_k = 1.0
    out = np.zeros((len(alphas), k_max), dtype=complex)
    out_done = np.zeros(len(alphas), dtype=bool)
    for _ in range(max_iterations):
        resid = np.einsum("nbk,nk->nb", A_a, Y) - H_a
        grad = np.einsum("nbk,nb->nk", A_a.conj(), resid)
        P = Y - gam * grad
        mags = np.abs(P)
        shrink = np.maximum(mags - thr[:, None], 0.0)
        X_next = P * (shrink / np.maximum(mags, 1e-300))
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t_k**2)) / 2.0
        Y = X_next + ((t_k - 1.0) / t_next) * (X_next - X)
        diff = X_next - X
        step = np.sqrt(np.einsum("nk,nk->n", diff, diff.conj()).real)
        scale = np.maximum(
            np.sqrt(np.einsum("nk,nk->n", X_next, X_next.conj()).real), 1e-30
        )
        X, t_k = X_next, t_next
        done = step < tolerance_rel * scale
        if done.any():
            out[active[done]] = X[done]
            out_done[active[done]] = True
            keep = ~done
            active = active[keep]
            if active.size == 0:
                break
            X = X[keep]
            Y = Y[keep]
            A_a = A_a[keep]
            H_a = H_a[keep]
            thr = thr[keep]
            gam = gam[keep]
    if active.size:
        # Still iterating when the cap ended the loop: counted, like
        # the profile solver's engine.fista_cap_hits_total.
        REGISTRY.inc("engine.lasso_cap_hits_total", active.size)
        out[active] = X
        out_done[active] = True
    for i in np.flatnonzero(out_done):
        results[i] = out[i, : widths[i]]
    return cast("list[ComplexProfile]", results)


def _lstsq_stack(A: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Least squares for a stack of small systems sharing one RHS.

    The hot path solves the normal equations ``AᴴA x = Aᴴh`` with one
    batched :func:`np.linalg.solve` — far cheaper than a per-system
    SVD, and for the well-separated atom sets the pruner scores, the
    squared conditioning costs ~1e-12 relative on the residual power,
    noise next to the pruner's 5 % decision margins.  Exactly singular
    systems (duplicate columns — a ghost candidate landing on an atom a
    previous sweep already snapped to that delay) make ``solve`` raise;
    those fall back to per-system ``np.linalg.lstsq`` and its min-norm
    fit.
    """
    Ah = A.conj().transpose(0, 2, 1)
    G = Ah @ A
    b = np.einsum("ckb,b->ck", Ah, h)
    try:
        amps = np.linalg.solve(G, b[..., None])[..., 0]
        if np.all(np.isfinite(amps)):
            return amps
    except np.linalg.LinAlgError:
        pass
    return np.stack(
        [np.linalg.lstsq(A[c], h, rcond=None)[0] for c in range(A.shape[0])]
    )


def _candidate_fits(
    alt_sets: FloatGrid, h: ComplexCSI, freqs: FrequencyVector
) -> tuple[FloatVector, FloatVector]:
    """``(rss, mean)`` of the joint LS fit of each candidate delay set.

    Row ``c`` of the ``(n_candidates, n_atoms)`` stack ``alt_sets`` gets
    its residual power and energy-weighted mean delay, the pair that
    :func:`relocate_ghost_delays` compares against its relative margin,
    from one stacked solve (:func:`_lstsq_stack`).
    """
    A = np.exp(-2.0j * np.pi * freqs[None, :, None] * alt_sets[:, None, :])
    amps = _lstsq_stack(A, h)
    r = h[None, :] - np.einsum("cbk,ck->cb", A, amps)
    rss = np.einsum("cb,cb->c", r, r.conj()).real
    weights = np.abs(amps) ** 2
    total = weights.sum(axis=1)
    mean = np.divide(
        (weights * alt_sets).sum(axis=1),
        total,
        out=np.zeros(len(alt_sets)),
        where=total > 0,
    )
    return rss, mean


def full_aperture_refit_batch(
    paths_per_link: list[list[RefinedPath]],
    frequencies_hz: FrequencyVector,
    channels: ComplexCSIStack,
    final_alpha_rel: float,
    polish_window_s: float = 0.2e-9,
    max_delay_s: float = np.inf,
) -> list[list[RefinedPath]]:
    """Re-fit coarse-group paths against every band, across a stack of links.

    The coarse extraction already pins each delay to a few tens of
    picoseconds; polishing within a ``±polish_window_s`` window against
    the full stitched aperture (potentially several GHz) buys its
    resolution without exposure to far pseudo-aliases.

    Two rounds per link: each re-fits the amplitudes jointly by least
    squares, then polishes atom ``k`` against the residual of the
    *current* delays (atoms below ``k`` already moved this round) with
    the round's amplitudes.  The polish is the extraction's lockstep
    bracket machinery: all links' ``k``-th atoms advance one
    golden-section step per iteration through :func:`_polish_batch`.
    The final amplitudes come from one batched L1 fit
    (:func:`lasso_amplitudes_batch`).

    Args:
        paths_per_link: Each link's coarse-extraction paths (empty lists
            pass through untouched).
        frequencies_hz: The **full** band set of the group.
        channels: ``(n_links, n_bands)`` stacked full-aperture products.
        final_alpha_rel: L1 weight of the final amplitude fit.
        polish_window_s: Half-width of the per-atom polish window.
        max_delay_s: The CRT-unique window the coarse extraction ran
            in.  The polish is clamped to it: a delay near the window
            edge must not be refined past it onto an indistinguishable
            alias.
    """
    freqs = np.asarray(frequencies_hz, dtype=float)
    H = np.asarray(channels, dtype=complex)
    if H.ndim != 2 or H.shape[0] != len(paths_per_link):
        raise ValueError(
            f"channels must be 2-D with one row per path list, got "
            f"{H.shape} for {len(paths_per_link)} links"
        )
    delays = [
        np.array([p.delay_s for p in paths], dtype=float)
        for paths in paths_per_link
    ]
    live = [i for i, d in enumerate(delays) if d.size]
    if not live:
        return list(paths_per_link)
    for _ in range(2):
        # Joint LS amplitudes per link: the supports are link-specific
        # small systems, noise next to the polish sweeps below.
        amps: dict[int, ComplexProfile] = {}
        for i in live:
            A = ndft_matrix(freqs, delays[i])
            amps[i], *_ = np.linalg.lstsq(A, H[i], rcond=None)
        for k in range(max(delays[i].size for i in live)):
            members = [i for i in live if delays[i].size > k]
            residuals = np.stack(
                [
                    H[i]
                    - ndft_matrix(freqs, np.delete(delays[i], k))
                    @ np.delete(amps[i], k)
                    for i in members
                ]
            )
            tau0 = np.array([delays[i][k] for i in members])
            polished = _polish_batch(
                residuals, freqs, tau0, polish_window_s, max_delay_s
            )
            for pos, i in enumerate(members):
                delays[i][k] = float(polished[pos])
    results = list(paths_per_link)
    amp_sets = lasso_amplitudes_batch(
        [delays[i] for i in live], freqs, H[live], final_alpha_rel
    )
    for i, final_amps in zip(live, amp_sets, strict=True):
        refit = [
            RefinedPath(float(d), complex(a))
            for d, a in zip(delays[i], final_amps, strict=True)
        ]
        refit.sort(key=lambda p: p.delay_s)
        results[i] = refit
    return results


def _correlations_at(
    residuals: np.ndarray, freqs: np.ndarray, taus: np.ndarray
) -> np.ndarray:
    """``|⟨a(τ_l), r_l⟩|`` for one delay per link, in one sweep."""
    steer = np.exp(2.0j * np.pi * np.outer(taus, freqs))
    return np.abs(np.einsum("lb,lb->l", steer, residuals))


@shaped(
    "(n_links, n_bands) complex128",
    "(n_bands,) float64",
    "(n_links,) float64",
    ret="(n_links,) float64",
)
def _polish_batch(
    residuals: ComplexCSIStack,
    freqs: FrequencyVector,
    tau0: DelayVector,
    half_window_s: float,
    max_delay_s: float,
) -> DelayVector:
    """Continuous per-link refinement of one delay each, in lockstep.

    Per link, maximizes ``|⟨a(τ), residual⟩|`` within ``half_window_s``
    of ``tau0``: a 17-point scan isolates the main lobe, then a
    golden-section search shrinks every link's bracket one step per
    iteration — one new correlation point per link per iteration,
    evaluated for all links at once — freezing links whose bracket is
    below tolerance, until all are.

    The search is clamped to ``[0, max_delay_s]``: the scan grid is
    built for the CRT-unique window, and an unclamped polish around its
    last bin could walk the refined delay past the window edge — onto a
    delay the aperture cannot distinguish from an alias inside it.  An
    unclamped call passes ``max_delay_s=np.inf``.
    """
    lo = np.maximum(tau0 - half_window_s, 0.0)
    hi = np.minimum(tau0 + half_window_s, max_delay_s)
    scan = np.linspace(lo, hi, 17, axis=1)
    phases = np.exp(2.0j * np.pi * scan[:, :, None] * freqs)
    corr = np.abs(np.einsum("lsb,lb->ls", phases, residuals))
    n = len(tau0)
    coarse = scan[np.arange(n), np.argmax(corr, axis=1)]
    step = scan[:, 1] - scan[:, 0]

    a = np.maximum(coarse - step, 0.0)
    b = np.minimum(coarse + step, max_delay_s)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = _correlations_at(residuals, freqs, c)
    fd = _correlations_at(residuals, freqs, d)
    tol = 1e-13  # matches _golden_max's default bracket tolerance
    run = (b - a) > tol
    while run.any():
        idx = np.flatnonzero(run)
        up = fc[idx] > fd[idx]
        ui = idx[up]
        li = idx[~up]
        # fc > fd: the max lives in [a, d] — shrink from above.
        b[ui] = d[ui]
        d[ui] = c[ui]
        fd[ui] = fc[ui]
        c[ui] = b[ui] - _INVPHI * (b[ui] - a[ui])
        # fc <= fd: the max lives in [c, b] — shrink from below.
        a[li] = c[li]
        c[li] = d[li]
        fc[li] = fd[li]
        d[li] = a[li] + _INVPHI * (b[li] - a[li])
        # One new correlation point per still-running link.
        probes = np.empty(idx.size, dtype=float)
        probes[up] = c[ui]
        probes[~up] = d[li]
        values = _correlations_at(residuals[idx], freqs, probes)
        fc[ui] = values[up]
        fd[li] = values[~up]
        run[idx] = (b[idx] - a[idx]) > tol
    return (a + b) / 2.0
