"""From distances to positions: §8 of the paper.

Each receive antenna's ToF × c defines a circle around that antenna on
which the transmitter must lie.  With two antennas the circles intersect
in (generically) two points; a third non-colinear antenna — or motion —
disambiguates.  Noisy circles rarely meet in a point, so the paper uses
least-squares intersection, preceded by discarding distance estimates
"that do not fit the geometry of the relative antenna placements"
(§12.2).

The solver itself lives in :mod:`repro.core.localization_batch`, which
runs it for a stack of clients at once; :func:`locate_transmitter` and
:func:`filter_geometry_consistent_detailed` are its one-client calls,
so a client solved alone gets exactly its row of a fleet stack.  This
module keeps the result types and the scalar geometry helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.rf.geometry import Point


@dataclass(frozen=True)
class GeometryDrop:
    """One distance estimate discarded by the §12.2 geometry filter.

    Attributes:
        index: Index of the dropped distance (caller's anchor order).
        against: The still-active peer whose pairwise bound the dropped
            estimate violated hardest when it was discarded.
        bound_m: The violated bound ``||a_index - a_against|| +
            tolerance`` — two true distances from one transmitter can
            never differ by more than the anchor separation.
        excess_m: How far ``|d_index - d_against|`` exceeded the bound.
    """

    index: int
    against: int
    bound_m: float
    excess_m: float


@dataclass(frozen=True)
class LocalizationResult:
    """Output of :func:`locate_transmitter`.

    Attributes:
        position: Least-squares transmitter location.
        residual_rms_m: RMS circle mismatch at the solution (meters) —
            large values flag unreliable fixes.
        used_indices: Which distance measurements survived the geometry
            filter and fed the optimizer.
        candidates: The discrete candidate set before refinement (both
            circle intersections in the 2-anchor case).
        anchors_colinear: True when every used anchor lies on one line
            (two anchors are trivially colinear).  Colinear anchors
            cannot tell a transmitter from its mirror image across that
            line, so an unhinted fix is a coin flip between the two —
            check :meth:`is_reliable` instead of trusting the (possibly
            tiny) residual.
        geometry_drops: Why each discarded distance was dropped — the
            pairwise bound it violated and by how much.
    """

    position: Point
    residual_rms_m: float
    used_indices: tuple[int, ...]
    candidates: tuple[Point, ...]
    anchors_colinear: bool = False
    geometry_drops: tuple[GeometryDrop, ...] = ()

    def is_reliable(self, max_residual_rms_m: float = 0.5) -> bool:
        """Quality gate for consumers that must not act on bad fixes.

        A fix is reliable when the circles actually met near the
        solution (``residual_rms_m`` within the gate) *and* the anchor
        geometry could disambiguate it: colinear anchors with both
        mirror candidates still in play give a near-zero residual on
        the wrong side half the time — the classic silent bad fix.
        Callers that resolved the mirror externally (a position hint, a
        position track) may trust such fixes anyway; this gate is the
        no-prior answer.
        """
        if self.residual_rms_m > max_residual_rms_m:
            return False
        return not (self.anchors_colinear and len(self.candidates) > 1)


def circle_intersections(
    c1: Point, r1_m: float, c2: Point, r2_m: float
) -> list[Point]:
    """Intersection points of two circles (0, 1 or 2 points).

    Concentric circles and containment/separation cases return ``[]``.
    """
    if r1_m < 0 or r2_m < 0:
        raise ValueError(f"radii must be non-negative, got {r1_m}, {r2_m}")
    d = c1.distance_to(c2)
    if d < 1e-12:
        return []
    if d > r1_m + r2_m or d < abs(r1_m - r2_m):
        return []
    a = (r1_m**2 - r2_m**2 + d**2) / (2.0 * d)
    h_sq = r1_m**2 - a**2
    h = math.sqrt(max(h_sq, 0.0))
    direction = (c2 - c1) * (1.0 / d)
    mid = c1 + a * direction
    if h < 1e-12:
        return [mid]
    normal = Point(-direction.y, direction.x)
    return [mid + h * normal, mid - h * normal]


def filter_geometry_consistent(
    anchors: Sequence[Point],
    distances_m: Sequence[float],
    tolerance_m: float = 0.3,
) -> list[int]:
    """Indices of distance estimates consistent with the antenna geometry.

    Physics bounds any two true distances from a common transmitter to
    two anchors: ``|d_i - d_j| <= ||a_i - a_j||`` (triangle inequality).
    Estimates violating the bound (beyond ``tolerance_m`` of slack) are
    iteratively discarded, worst violator first — this is the paper's
    §12.2 outlier-rejection step.

    At least two estimates are always retained (dropping below two makes
    localization impossible; the residual check must catch the rest).

    Use :func:`filter_geometry_consistent_detailed` when you also need
    to know *which* pairwise bound each dropped estimate violated.
    """
    kept, _ = filter_geometry_consistent_detailed(
        anchors, distances_m, tolerance_m
    )
    return kept


def filter_geometry_consistent_detailed(
    anchors: Sequence[Point],
    distances_m: Sequence[float],
    tolerance_m: float = 0.3,
) -> tuple[list[int], tuple[GeometryDrop, ...]]:
    """:func:`filter_geometry_consistent` plus per-drop diagnostics.

    Returns ``(kept_indices, drops)`` where each :class:`GeometryDrop`
    records the still-active peer whose bound the dropped estimate
    violated hardest, the bound itself and the excess — what a serving
    layer needs to tell an operator *why* an anchor's range was
    discarded rather than just that it was.

    The one-client call of
    :func:`repro.core.localization_batch.filter_geometry_consistent_batch`.
    """
    from repro.core.localization_batch import filter_geometry_consistent_batch

    if len(anchors) != len(distances_m):
        raise ValueError(
            f"got {len(anchors)} anchors but {len(distances_m)} distances"
        )
    mask, drops = filter_geometry_consistent_batch(
        np.array([[a.x, a.y] for a in anchors], dtype=float).reshape(1, -1, 2),
        np.asarray(distances_m, dtype=float).reshape(1, -1),
        tolerance_m,
    )
    return [int(i) for i in np.flatnonzero(mask[0])], drops[0]


def anchors_are_colinear(anchors: Sequence[Point]) -> bool:
    """Whether every anchor lies on one line (within numerical noise).

    Two anchors are trivially colinear.  For more, the test is the
    perpendicular spread about the line through the widest-separated
    pair, relative to that separation — so a linear antenna array
    (:func:`repro.core.pipeline.linear_array`) is flagged while a
    triangle is not.
    """
    if len(anchors) < 2:
        return True
    best_i, best_j, best_sep = 0, min(1, len(anchors) - 1), -1.0
    for i in range(len(anchors)):
        for j in range(i + 1, len(anchors)):
            sep = anchors[i].distance_to(anchors[j])
            if sep > best_sep:
                best_i, best_j, best_sep = i, j, sep
    if best_sep <= 0.0:
        return True
    a, b = anchors[best_i], anchors[best_j]
    direction = (b - a) * (1.0 / best_sep)
    max_perp = max(abs(direction.cross(p - a)) for p in anchors)
    return max_perp <= 1e-9 * max(best_sep, 1.0)


def locate_transmitter(
    anchors: Sequence[Point],
    distances_m: Sequence[float],
    tolerance_m: float = 0.3,
    position_hint: Point | None = None,
) -> LocalizationResult:
    """Least-squares position of a transmitter from anchor distances (§8).

    Args:
        anchors: Receive-antenna positions (world frame).
        distances_m: Estimated distance from the transmitter to each
            anchor (ToF × c).
        tolerance_m: Slack for the geometry-consistency filter.
        position_hint: Optional prior (e.g. the previous fix, or motion
            disambiguation): used to pick among candidate intersections.

    Returns:
        A :class:`LocalizationResult`.  With two usable anchors and no
        hint, the returned position is the candidate with the smaller
        residual, and both candidates are exposed for the caller to
        disambiguate (the paper's mobility strategy).

    The one-client call of
    :func:`repro.core.localization_batch.locate_transmitter_batch`: the
    result is exactly that client's row of a stacked solve.  Distances
    must be finite and non-negative (``ValueError`` otherwise).
    """
    from repro.core.localization_batch import locate_transmitter_batch

    return locate_transmitter_batch(
        list(anchors),
        np.asarray(distances_m, dtype=float).reshape(1, -1),
        tolerance_m=tolerance_m,
        position_hints=[position_hint],
    )[0]


def disambiguate_by_motion(
    candidates: Sequence[Point],
    previous_position: Point,
    moved_toward: Point,
    new_distance_m: float,
) -> Point:
    """The paper's §8 mobility disambiguation.

    After moving from ``previous_position`` toward ``moved_toward``, the
    candidate whose predicted new distance best matches the measured
    ``new_distance_m`` is the true transmitter location.
    """
    if not candidates:
        raise ValueError("need at least one candidate")
    return min(
        candidates,
        key=lambda c: abs(c.distance_to(moved_toward) - new_distance_m),
    )
