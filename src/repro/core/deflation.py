"""Greedy off-grid path extraction: settings and per-link rules.

The L1 inversion of Algorithm 1 recovers the multipath *profile*, but
picking the first peak straight off a gridded profile has a failure
mode on stitched Wi-Fi apertures: most 5 GHz channels sit on a 20 MHz
lattice, so a delay shifted by ±50 ns correlates ≈0.82 with the truth,
and with coherent columns the LASSO splits mass onto such pseudo-aliases
— occasionally *earlier* than the direct path.

The cure is classic super-resolution practice (CLEAN / Newtonized OMP):
estimate paths one at a time **off-grid** and subtract them.  The
extractor, :func:`repro.core.deflation_batch.extract_paths_batch`, runs
the greedy loop for a stack of links; one link is a one-row stack.
This module holds what the extractor and the engine share: the
settings, the signal floor that stops extraction, the matched-filter
grid, the pseudo-alias shifts of a band plan and the paper's
first-peak rule (§6) over the extracted paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.profile import RefinedPath
from repro.core.typing import DelayVector, FrequencyVector


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


def signal_floor_rel(amplitude_keep_rel: float, max_paths: int) -> float:
    """The least share of a link's input power an extracted atom must remove.

    ``amplitude_keep_rel² / max_paths`` — 5.2e-3 at the first-path
    rule's 0.25 cut and the default budget of 12.  Once the atoms
    explain the link, at most ``max_paths`` of them share its input
    power, so the strongest carries at least ``1 / max_paths`` of it.
    An atom removing less than ``amplitude_keep_rel²`` of that has an
    amplitude below ``amplitude_keep_rel`` × the peak, and
    :func:`first_path_delay` never picks it.  Extraction stops at this
    floor, so a sparse channel takes as many atoms as it has components
    rather than filling the budget with noise fits.

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
    the config's phase budget.  The grid is a pure function of
    (frequencies, window, phase budget), so every stack of links on a
    band plan hits the same cached NDFT operator.
    """
    freqs = np.asarray(frequencies_hz, dtype=float)
    span = float(freqs.max() - freqs.min())
    if span <= 0:
        raise ValueError("frequencies must not be all identical")
    grid_step = config.phase_budget_rad / (np.pi * span)
    return np.arange(0.0, max_delay_s, grid_step), grid_step


SOFT_GATE_WINDOW_S = 25e-9
"""Soft-tier window below the coarse gate, in the 2τ domain.

Scaled by ``exponent / 2`` at the call site.
"""

SOFT_GATE_AMPLITUDE_REL = 0.35
"""Minimum relative amplitude for an atom admitted via the soft tier."""


def gate_target_mean_s(
    gate_s: float | None, margin_s: float, exponent: int
) -> float | None:
    """The slope-derived weighted-mean target implied by a coarse gate.

    The gate is ``coarse − margin`` (in the group's delay domain); the
    pre-margin coarse value is the energy-weighted mean-delay target the
    ghost pruner tie-breaks against.
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
