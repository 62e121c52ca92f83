"""Greedy off-grid path extraction (successive deflation).

The L1 inversion of Algorithm 1 recovers the multipath *profile*, but
picking the first peak straight off a gridded profile has a failure
mode on stitched Wi-Fi apertures: most 5 GHz channels sit on a 20 MHz
lattice, so a delay shifted by ±50 ns correlates ≈0.82 with the truth,
and with coherent columns the LASSO splits mass onto such pseudo-aliases
— occasionally *earlier* than the direct path.

The cure is classic super-resolution practice (CLEAN / Newtonized OMP):
estimate paths one at a time **off-grid** and subtract them:

1. matched-filter the residual on a grid fine enough that the true
   (continuous) delay is represented almost losslessly,
2. polish the winning delay continuously (golden-section),
3. jointly least-squares re-fit all amplitudes, deflate, repeat until
   the next atom falls below the signal floor
   (:func:`signal_floor_rel`) or the atom budget is spent.

Because every extracted atom matches its component exactly (no grid
quantization), nothing leaks onto pseudo-aliases, and the residual after
the true components is pure noise.  The returned path list feeds the
same first-peak rule as the paper (§6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.analysis.contracts import shaped
from repro.core.ndft import get_operator, ndft_matrix, steering_vector
from repro.core.profile import RefinedPath, _golden_max, scan_correlations
from repro.core.typing import (
    ComplexCSI,
    ComplexProfile,
    DelayVector,
    FloatGrid,
    FloatVector,
    FrequencyVector,
    NdftMatrix,
)

ScoreCandidates = Callable[[FloatGrid], "tuple[FloatVector, FloatVector]"]
"""Maps an ``(n_candidates, n_atoms)`` delay-set stack to per-row
``(residual power, energy-weighted mean delay)`` arrays."""


@dataclass(frozen=True)
class DeflationConfig:
    """Settings of the greedy extractor.

    Extraction also stops at the *signal floor*
    (:func:`signal_floor_rel`): an atom must remove at least
    ``amplitude_keep_rel² / max_paths`` of the link's input power, 5.2e-3
    at the defaults, where ``amplitude_keep_rel`` is the first-path
    rule's amplitude cut.  A weaker atom is one the first-path rule
    would not pick, so once the residual is noise extraction ends
    instead of filling the atom budget with noise fits.  The floor is
    derived, not set: it has no field here.

    Attributes:
        max_paths: Atom budget.  The reciprocity square of a p-path
            channel has up to p(p+1)/2 components; the budget caps model
            size at what the band count can support.
        min_improvement_rel: Stop when an extraction step fails to remove
            at least this fraction of the current residual power — the
            atom is then fitting noise and is discarded.
        phase_budget_rad: Sets the matched-filter grid: the sub-grid
            phase error across the aperture stays below this budget.
        final_alpha_rel: L1 weight of the final amplitude fit, relative
            to ``max|Aᴴh|`` over the extracted atoms.  Plain least
            squares would inflate pseudo-alias atoms (19 of the 24
            5 GHz bands sit on a 20 MHz lattice, so a ±50 ns shifted
            atom correlates ≈0.82 with the truth and LS splits energy
            across the pair); the L1 fit concentrates the energy on the
            better-aligned atom and zeroes its alias ghost.
    """

    max_paths: int = 12
    min_improvement_rel: float = 0.02
    phase_budget_rad: float = 0.3
    final_alpha_rel: float = 0.1

    def __post_init__(self) -> None:
        if self.max_paths < 1:
            raise ValueError(f"max_paths must be >= 1, got {self.max_paths}")
        if not 0.0 < self.min_improvement_rel < 1.0:
            raise ValueError(
                f"min_improvement_rel must be in (0,1), got {self.min_improvement_rel}"
            )
        if self.phase_budget_rad <= 0:
            raise ValueError(
                f"phase budget must be positive, got {self.phase_budget_rad}"
            )
        if not 0.0 <= self.final_alpha_rel < 1.0:
            raise ValueError(
                f"final_alpha_rel must be in [0,1), got {self.final_alpha_rel}"
            )


def extract_paths(
    channels: ComplexCSI | Sequence[complex],
    frequencies_hz: FrequencyVector | Sequence[float],
    max_delay_s: float,
    config: DeflationConfig | None = None,
    amplitude_keep_rel: float = 0.25,
) -> list[RefinedPath]:
    """Greedy off-grid decomposition of ``channels`` into delay atoms.

    Extraction stops at the first atom that removes less than
    ``max(min_improvement_rel × residual power, floor × input power)``,
    with the floor from :func:`signal_floor_rel`, or when the atom
    budget is spent.  A link whose residual is already at or below
    ``floor × input power`` takes no further atom.

    Args:
        channels: Measured (zero-subcarrier) channels, one per frequency.
        frequencies_hz: The non-uniform measurement frequencies.
        max_delay_s: Delay search window (the group's CRT-unique window).
        config: Extraction settings.
        amplitude_keep_rel: The first-path rule's amplitude cut
            (:func:`first_path_delay`), which sets the signal floor.

    Returns:
        Paths sorted by delay; amplitudes are the final joint L1 fit
        (:func:`lasso_amplitudes`).
    """
    cfg = config or DeflationConfig()
    floor_rel = signal_floor_rel(amplitude_keep_rel, cfg.max_paths)
    h = np.asarray(channels, dtype=complex)
    freqs = np.asarray(frequencies_hz, dtype=float)
    if h.shape != freqs.shape or h.ndim != 1:
        raise ValueError("channels and frequencies must be 1-D and equal length")
    if len(h) < 3:
        raise ValueError("need at least 3 measurements to extract paths")
    if max_delay_s <= 0:
        raise ValueError(f"max delay must be positive, got {max_delay_s}")

    grid, grid_step = matched_filter_grid(freqs, max_delay_s, cfg)
    # The grid is a pure function of (frequencies, window, phase budget),
    # so a batch of links sharing a band plan reuses one cached matrix.
    F = get_operator(freqs, grid).F

    total_power = float(np.vdot(h, h).real)
    if total_power == 0.0:
        return []
    floor_power = floor_rel * total_power
    residual = h.copy()
    delays: list[float] = []
    amps = np.zeros(0, dtype=complex)
    for _ in range(cfg.max_paths):
        previous_power = float(np.vdot(residual, residual).real)
        if previous_power <= floor_power:
            break
        corr = np.abs(F.conj().T @ residual)
        tau0 = float(grid[int(np.argmax(corr))])
        tau = _polish(residual, freqs, tau0, grid_step, max_delay_s)
        candidate_delays = np.array(delays + [tau])
        A = ndft_matrix(freqs, candidate_delays)
        candidate_amps, *_ = np.linalg.lstsq(A, h, rcond=None)
        new_residual = h - A @ candidate_amps
        new_power = float(np.vdot(new_residual, new_residual).real)
        improvement = previous_power - new_power
        if improvement < max(cfg.min_improvement_rel * previous_power, floor_power):
            break
        delays.append(tau)
        amps = candidate_amps
        residual = new_residual
    if not delays:
        # Even pure noise yields one best-matching atom; fall back to the
        # single strongest correlation so callers always get a path.
        corr = np.abs(F.conj().T @ h)
        tau = _polish(h, freqs, float(grid[int(np.argmax(corr))]), grid_step, max_delay_s)
        a = np.vdot(steering_vector(freqs, tau), h) / len(h)
        return [RefinedPath(tau, complex(a))]
    amps = lasso_amplitudes(
        ndft_matrix(freqs, np.asarray(delays)), h, cfg.final_alpha_rel
    )
    paths = [RefinedPath(float(d), complex(a)) for d, a in zip(delays, amps, strict=True)]
    paths.sort(key=lambda p: p.delay_s)
    return paths


def signal_floor_rel(amplitude_keep_rel: float, max_paths: int) -> float:
    """The least share of a link's input power an extracted atom must remove.

    ``amplitude_keep_rel² / max_paths`` — 5.2e-3 at the first-path
    rule's 0.25 cut and the default budget of 12.  Once the atoms
    explain the link, at most ``max_paths`` of them share its input
    power, so the strongest carries at least ``1 / max_paths`` of it.
    An atom removing less than ``amplitude_keep_rel²`` of that has an
    amplitude below ``amplitude_keep_rel`` × the peak, and
    :func:`first_path_delay` never picks it.  Both extractors stop at
    this floor, so a sparse channel takes as many atoms as it has
    components rather than filling the budget with noise fits.

    This is a heuristic bound, not a proof: the atoms are not
    orthogonal, so power does not split exactly among them, and the
    coarse gate can drop the peak atom from the first-path rule's
    admissible set, lowering the peak it compares against.  The golden
    ToF fixtures under ``tests/golden/`` are the check that the floor
    moves no answer.
    """
    if not 0.0 < amplitude_keep_rel <= 1.0:
        raise ValueError(
            f"amplitude_keep_rel must be in (0,1], got {amplitude_keep_rel}"
        )
    return amplitude_keep_rel**2 / max_paths


def matched_filter_grid(
    frequencies_hz: FrequencyVector | Sequence[float],
    max_delay_s: float,
    config: DeflationConfig,
) -> tuple[DelayVector, float]:
    """The greedy extractor's scan grid: ``(grid, grid_step_s)``.

    The step keeps the sub-grid phase error across the aperture below
    the config's phase budget.  Shared by the scalar and batched
    extractors so both scan the exact same candidate delays (and hence
    hit the same cached NDFT operator).
    """
    freqs = np.asarray(frequencies_hz, dtype=float)
    span = float(freqs.max() - freqs.min())
    if span <= 0:
        raise ValueError("frequencies must not be all identical")
    grid_step = config.phase_budget_rad / (np.pi * span)
    return np.arange(0.0, max_delay_s, grid_step), grid_step


@shaped("(n_freqs, n_atoms) complex128", "(n_freqs,) complex128", ret="(n_atoms,) complex128")
def lasso_amplitudes(
    A: NdftMatrix,
    h: ComplexCSI,
    alpha_rel: float,
    max_iterations: int = 400,
    tolerance_rel: float = 1e-6,
) -> ComplexProfile:
    """L1-regularized amplitude fit on a small fixed dictionary.

    FISTA on ``min ||h - A x||² + α||x||₁`` with α relative to
    ``max|Aᴴh|``.  Used as the *final* amplitude estimate after greedy
    extraction: unlike plain least squares it does not split energy onto
    pseudo-alias atoms that merely correlate with a true component.
    """
    A = np.asarray(A, dtype=complex)
    h = np.asarray(h, dtype=complex)
    if A.shape[0] != len(h):
        raise ValueError(f"A has {A.shape[0]} rows but h has {len(h)} entries")
    Ah = A.conj().T
    corr = np.abs(Ah @ h)
    alpha = alpha_rel * float(corr.max()) if corr.size else 0.0
    if alpha == 0.0:
        x, *_ = np.linalg.lstsq(A, h, rcond=None)
        return x
    gamma = 1.0 / float(np.linalg.norm(A, 2) ** 2)
    x = np.zeros(A.shape[1], dtype=complex)
    y = x
    t_k = 1.0
    from repro.core.sparse import soft_threshold

    for _ in range(max_iterations):
        grad = Ah @ (A @ y - h)
        x_next = soft_threshold(y - gamma * grad, gamma * alpha)
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t_k**2)) / 2.0
        y = x_next + ((t_k - 1.0) / t_next) * (x_next - x)
        step = float(np.linalg.norm(x_next - x))
        scale = max(float(np.linalg.norm(x_next)), 1e-30)
        x, t_k = x_next, t_next
        if step < tolerance_rel * scale:
            break
    return x


SOFT_GATE_WINDOW_S = 25e-9
"""Soft-tier window below the coarse gate, in the 2τ domain.

Scaled by ``exponent / 2`` at the call sites.  Shared by the scalar
estimator and the batched engine so the two hybrid paths cannot drift.
"""

SOFT_GATE_AMPLITUDE_REL = 0.35
"""Minimum relative amplitude for an atom admitted via the soft tier."""


def gate_target_mean_s(
    gate_s: float | None, margin_s: float, exponent: int
) -> float | None:
    """The slope-derived weighted-mean target implied by a coarse gate.

    The gate is ``coarse − margin`` (in the group's delay domain); the
    pre-margin coarse value is the energy-weighted mean-delay target the
    ghost pruner tie-breaks against.  One definition for the scalar and
    batched hybrid paths.
    """
    if gate_s is None:
        return None
    return gate_s + margin_s * exponent / 2.0


def first_path_delay(
    paths: list[RefinedPath],
    amplitude_keep_rel: float = 0.25,
    min_delay_s: float = 0.0,
    soft_window_s: float = 0.0,
    soft_amplitude_rel: float = 0.5,
) -> float:
    """The paper's first-peak rule over extracted paths.

    The earliest path whose amplitude is at least ``amplitude_keep_rel``
    of the strongest — weak leading atoms are residual-noise fits, not
    the direct path.  ``min_delay_s`` is the coarse range gate: atoms
    earlier than it are physically implausible (the unambiguous slope
    estimate bounds the true delay from below) and are skipped — unless
    they fall within ``soft_window_s`` below the gate *and* carry at
    least ``soft_amplitude_rel`` of the peak amplitude.  The soft tier
    covers heavily-spread NLOS channels, where the slope estimate runs
    late enough that a hard gate would clip the true direct path; an
    alias ghost sits a full shift (≥ 50 ns) early and never qualifies.
    """
    if not paths:
        raise ValueError("no paths to select from")
    if not 0.0 < amplitude_keep_rel <= 1.0:
        raise ValueError(
            f"amplitude_keep_rel must be in (0,1], got {amplitude_keep_rel}"
        )
    peak_all = max(abs(p.amplitude) for p in paths)
    admissible = [
        p
        for p in paths
        if p.delay_s >= min_delay_s
        or (
            p.delay_s >= min_delay_s - soft_window_s
            and abs(p.amplitude) >= soft_amplitude_rel * peak_all
        )
    ]
    if not admissible:
        admissible = paths  # a too-aggressive gate must not leave us empty-handed
    peak = max(abs(p.amplitude) for p in admissible)
    for p in admissible:
        if abs(p.amplitude) >= amplitude_keep_rel * peak:
            return p.delay_s
    return admissible[0].delay_s


def ghost_shifts_s(
    frequencies_hz: FrequencyVector | Sequence[float], max_delay_s: float
) -> list[float]:
    """The known pseudo-alias family of a band plan.

    Most 5 GHz channels sit on a 20 MHz lattice, so an atom shifted by a
    multiple of 1/(20 MHz) = 50 ns matches 19 of the 24 bands exactly
    and correlates ≈0.8 overall — the dominant ambiguity of the plan.
    The shifts are derived from the *modal* adjacent channel spacing so
    the logic transfers to band subsets and other plans.
    """
    freqs = np.sort(np.asarray(frequencies_hz, dtype=float))
    if len(freqs) < 3:
        return []
    diffs = np.diff(freqs)
    khz = np.round(diffs / 1e3).astype(np.int64)
    khz = khz[khz > 0]
    if len(khz) == 0:
        return []
    values, counts = np.unique(khz, return_counts=True)
    modal_gap_hz = float(values[np.argmax(counts)]) * 1e3
    period = 1.0 / modal_gap_hz
    shifts: list[float] = []
    k = 1
    while k * period < max_delay_s:
        shifts.append(k * period)
        k += 1
    return shifts


def prune_ghost_atoms(
    paths: list[RefinedPath],
    channels: ComplexCSI,
    frequencies_hz: FrequencyVector,
    shifts_s: list[float],
    max_delay_s: float,
    margin_rel: float = 0.05,
    final_alpha_rel: float = 0.1,
    merge_tolerance_s: float = 0.4e-9,
    target_mean_delay_s: float | None = None,
    score_candidates: ScoreCandidates | None = None,
) -> list[RefinedPath]:
    """Relocate or remove atoms that are pseudo-aliases of real content.

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

    ``score_candidates`` maps a ``(n_candidates, n_atoms)`` stack of
    candidate delay sets to ``(rss, mean)`` arrays — residual power and
    energy-weighted mean delay of the joint LS fit per candidate row.
    The default scores row by row with ``np.linalg.lstsq``; the batched
    pruner injects a stacked scorer with identical semantics so the
    relocation *decisions* (and hence the returned delays) stay the
    same while the per-candidate solver overhead amortizes.
    """
    if not paths or not shifts_s:
        return paths
    h = np.asarray(channels, dtype=complex)
    freqs = np.asarray(frequencies_hz, dtype=float)
    delays = relocate_ghost_delays(
        paths,
        h,
        freqs,
        shifts_s,
        max_delay_s,
        margin_rel=margin_rel,
        merge_tolerance_s=merge_tolerance_s,
        target_mean_delay_s=target_mean_delay_s,
        score_candidates=score_candidates,
    )
    amps = lasso_amplitudes(ndft_matrix(freqs, delays), h, final_alpha_rel)
    return finalize_pruned_paths(delays, amps)


def relocate_ghost_delays(
    paths: list[RefinedPath],
    h: ComplexCSI,
    freqs: FrequencyVector,
    shifts_s: list[float],
    max_delay_s: float,
    margin_rel: float = 0.05,
    merge_tolerance_s: float = 0.4e-9,
    target_mean_delay_s: float | None = None,
    score_candidates: ScoreCandidates | None = None,
) -> DelayVector:
    """The relocation sweeps of :func:`prune_ghost_atoms`, delays only.

    Split out so the batched pruner can run the (data-dependent)
    relocation per link and then fit every link's final amplitudes in
    one batched L1 solve; the scalar pruner composes this with a scalar
    :func:`lasso_amplitudes` call and :func:`finalize_pruned_paths`.
    """
    delays = np.array(sorted(p.delay_s for p in paths))

    def fit_for(d: DelayVector) -> tuple[float, float]:
        """(residual power, energy-weighted mean delay) of an LS fit."""
        A = ndft_matrix(freqs, d)
        amps, *_ = np.linalg.lstsq(A, h, rcond=None)
        r = h - A @ amps
        weights = np.abs(amps) ** 2
        total = float(weights.sum())
        mean = float((weights * d).sum() / total) if total > 0 else 0.0
        return float(np.vdot(r, r).real), mean

    scorer = score_candidates
    if scorer is None:

        def _default_scorer(alt_sets: FloatGrid) -> tuple[FloatVector, FloatVector]:
            scored = [fit_for(alt) for alt in alt_sets]
            return (
                np.array([s[0] for s in scored]),
                np.array([s[1] for s in scored]),
            )

        scorer = _default_scorer

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
            rss_all, mean_all = scorer(alt_sets)
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


def _polish(
    residual: np.ndarray,
    freqs: np.ndarray,
    tau0_s: float,
    half_window_s: float,
    max_delay_s: float = np.inf,
) -> float:
    """Continuous refinement of one delay against the current residual.

    The search is clamped to ``[0, max_delay_s]``: the scan grid is
    built for the CRT-unique window, and an unclamped polish around its
    last bin could walk the refined delay past the window edge — onto a
    delay the aperture cannot distinguish from an alias inside it.
    """

    def correlation(tau_s: float) -> float:
        return float(np.abs(np.vdot(steering_vector(freqs, tau_s), residual)))

    lo = max(tau0_s - half_window_s, 0.0)
    hi = min(tau0_s + half_window_s, max_delay_s)
    scan = np.linspace(lo, hi, 17)
    coarse = float(scan[int(np.argmax(scan_correlations(residual, freqs, scan)))])
    step = float(scan[1] - scan[0])
    return _golden_max(
        correlation, max(coarse - step, 0.0), min(coarse + step, max_delay_s)
    )
