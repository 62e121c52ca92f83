"""The RMSE helper and §8 localization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.localization import (
    anchors_are_colinear,
    circle_intersections,
    disambiguate_by_motion,
    filter_geometry_consistent,
    filter_geometry_consistent_detailed,
    locate_transmitter,
)
from repro.core.ranging import rmse
from repro.rf.geometry import Point


class TestRmse:
    def test_rmse_helper(self):
        assert rmse(np.array([3.0, 4.0])) == pytest.approx(math.sqrt(12.5))
        with pytest.raises(ValueError):
            rmse(np.array([]))


class TestCircleIntersections:
    def test_two_intersections(self):
        pts = circle_intersections(Point(0, 0), 5.0, Point(8, 0), 5.0)
        assert len(pts) == 2
        for p in pts:
            assert p.distance_to(Point(0, 0)) == pytest.approx(5.0)
            assert p.distance_to(Point(8, 0)) == pytest.approx(5.0)

    def test_tangent_circles_single_point(self):
        pts = circle_intersections(Point(0, 0), 2.0, Point(4, 0), 2.0)
        assert len(pts) == 1
        assert pts[0] == Point(2.0, 0.0)

    def test_disjoint_circles(self):
        assert circle_intersections(Point(0, 0), 1.0, Point(10, 0), 1.0) == []

    def test_contained_circles(self):
        assert circle_intersections(Point(0, 0), 5.0, Point(1, 0), 1.0) == []

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            circle_intersections(Point(0, 0), -1.0, Point(1, 0), 1.0)

    @settings(max_examples=30)
    @given(
        x=st.floats(min_value=-5, max_value=5),
        y=st.floats(min_value=-5, max_value=5),
    )
    def test_intersections_lie_on_both_circles(self, x, y):
        c1, c2 = Point(0, 0), Point(6, 1)
        target = Point(x, y)
        r1, r2 = c1.distance_to(target), c2.distance_to(target)
        if r1 < 1e-6 or r2 < 1e-6:
            return
        pts = circle_intersections(c1, r1, c2, r2)
        assert pts  # the construction guarantees an intersection
        assert min(p.distance_to(target) for p in pts) < 1e-6

    def test_internally_tangent_circles_single_point(self):
        """Tangency from the inside (d == |r1 - r2|), not just outside."""
        pts = circle_intersections(Point(0, 0), 5.0, Point(3, 0), 2.0)
        assert len(pts) == 1
        assert pts[0].distance_to(Point(5.0, 0.0)) < 1e-9

    def test_near_tangent_points_stay_on_both_circles(self):
        """A hair inside tangency the sqrt amplifies the gap (1e-14 in
        d becomes ~1e-7 in h): two distinct points, both finite and on
        both circles — the max(h_sq, 0) clamp keeps rounding from
        producing NaN here."""
        c1, c2 = Point(0, 0), Point(2.0 - 1e-14, 0)
        pts = circle_intersections(c1, 1.0, c2, 1.0)
        assert len(pts) == 2
        for p in pts:
            assert abs(p.distance_to(c1) - 1.0) < 1e-9
            assert abs(p.distance_to(c2) - 1.0) < 1e-9

    def test_just_beyond_tangency_no_intersection(self):
        """Strictly separated (d > r1 + r2) or strictly contained
        (d < |r1 - r2|) circles return no points, even by a whisker."""
        assert circle_intersections(Point(0, 0), 1.0, Point(2.0 + 1e-9, 0), 1.0) == []
        assert circle_intersections(Point(0, 0), 5.0, Point(3.0 - 1e-9, 0), 2.0) == []

    def test_near_concentric_centers_within_epsilon(self):
        """Center separation below the 1e-12 guard is concentric: no
        intersection points rather than a division blow-up."""
        assert circle_intersections(Point(0, 0), 3.0, Point(5e-13, 0), 3.0) == []
        # Just above the guard with equal radii the points are finite
        # and (anti)symmetric about the near-common center.
        pts = circle_intersections(Point(0, 0), 3.0, Point(1e-9, 0), 3.0)
        assert len(pts) == 2
        for p in pts:
            assert abs(p.distance_to(Point(0, 0)) - 3.0) < 1e-6

    def test_zero_radius_on_the_other_circle(self):
        """A degenerate zero-radius circle sitting on the other circle
        intersects it in exactly that point."""
        pts = circle_intersections(Point(0, 0), 2.0, Point(2, 0), 0.0)
        assert pts == [Point(2.0, 0.0)]


class TestGeometryFilter:
    ANCHORS = [Point(0, 0), Point(1, 0), Point(0.5, 0.8)]

    def test_consistent_distances_all_kept(self):
        target = Point(3, 4)
        dists = [a.distance_to(target) for a in self.ANCHORS]
        assert filter_geometry_consistent(self.ANCHORS, dists) == [0, 1, 2]

    def test_violating_distance_dropped(self):
        target = Point(3, 4)
        dists = [a.distance_to(target) for a in self.ANCHORS]
        dists[1] += 30.0  # impossible: anchors are ~1 m apart
        kept = filter_geometry_consistent(self.ANCHORS, dists, tolerance_m=0.3)
        assert 1 not in kept
        assert len(kept) == 2

    def test_never_drops_below_two(self):
        dists = [1.0, 50.0, 100.0]
        kept = filter_geometry_consistent(self.ANCHORS, dists, tolerance_m=0.1)
        assert len(kept) >= 2

    def test_validation(self):
        with pytest.raises(ValueError):
            filter_geometry_consistent(self.ANCHORS, [1.0, 2.0])
        with pytest.raises(ValueError):
            filter_geometry_consistent(self.ANCHORS, [1.0, -2.0, 3.0])
        with pytest.raises(ValueError, match="finite"):
            filter_geometry_consistent(self.ANCHORS, [1.0, math.nan, 3.0])

    def test_detailed_filter_reports_violated_bound(self):
        target = Point(3, 4)
        dists = [a.distance_to(target) for a in self.ANCHORS]
        dists[1] += 30.0
        kept, drops = filter_geometry_consistent_detailed(
            self.ANCHORS, dists, tolerance_m=0.3
        )
        assert 1 not in kept
        (drop,) = drops
        assert drop.index == 1
        assert drop.against in kept
        assert drop.bound_m == pytest.approx(
            self.ANCHORS[1].distance_to(self.ANCHORS[drop.against]) + 0.3
        )
        assert drop.excess_m == pytest.approx(
            abs(dists[1] - dists[drop.against]) - drop.bound_m
        )
        assert drop.excess_m > 25.0

    def test_detailed_filter_clean_input_no_drops(self):
        target = Point(3, 4)
        dists = [a.distance_to(target) for a in self.ANCHORS]
        kept, drops = filter_geometry_consistent_detailed(self.ANCHORS, dists)
        assert kept == [0, 1, 2]
        assert drops == ()


class TestColinearGuard:
    def test_linear_array_flagged(self):
        line = [Point(0, 0), Point(1, 0), Point(2, 0)]
        assert anchors_are_colinear(line)
        target = Point(1.0, 2.0)
        result = locate_transmitter(line, [a.distance_to(target) for a in line])
        assert result.anchors_colinear
        # Mirror ambiguity unresolved: tiny residual yet not reliable.
        assert result.residual_rms_m < 1e-6
        assert not result.is_reliable()

    def test_triangle_not_flagged_and_reliable(self):
        tri = [Point(0, 0), Point(4, 0), Point(2, 3)]
        assert not anchors_are_colinear(tri)
        target = Point(1.5, 1.0)
        result = locate_transmitter(tri, [a.distance_to(target) for a in tri])
        assert not result.anchors_colinear
        assert result.is_reliable()

    def test_large_residual_not_reliable(self):
        tri = [Point(0, 0), Point(4, 0), Point(2, 3)]
        result = locate_transmitter(tri, [10.0, 3.0, 11.0], tolerance_m=20.0)
        assert result.residual_rms_m > 0.5
        assert not result.is_reliable()

    def test_two_anchors_trivially_colinear(self):
        assert anchors_are_colinear([Point(0, 0), Point(1, 1)])
        assert anchors_are_colinear([Point(2, 2)])


class TestLocateTransmitter:
    ANCHORS = [Point(0, 0), Point(1.0, 0), Point(0.5, 0.9)]

    def test_exact_distances_exact_fix(self):
        target = Point(4.0, 3.0)
        dists = [a.distance_to(target) for a in self.ANCHORS]
        result = locate_transmitter(self.ANCHORS, dists)
        assert result.position.distance_to(target) < 1e-6
        assert result.residual_rms_m < 1e-6

    def test_noisy_distances_close_fix(self, rng):
        target = Point(5.0, 2.0)
        dists = [a.distance_to(target) + rng.normal(0, 0.05) for a in self.ANCHORS]
        result = locate_transmitter(self.ANCHORS, dists)
        assert result.position.distance_to(target) < 1.0

    def test_two_anchor_ambiguity_exposed(self):
        anchors = [Point(0, 0), Point(2, 0)]
        target = Point(1.0, 1.5)
        dists = [a.distance_to(target) for a in anchors]
        result = locate_transmitter(anchors, dists)
        assert len(result.candidates) == 2
        # The mirror candidate is at (1, -1.5).
        ys = sorted(c.y for c in result.candidates)
        assert ys[0] == pytest.approx(-1.5, abs=1e-6)
        assert ys[1] == pytest.approx(1.5, abs=1e-6)

    def test_hint_resolves_ambiguity(self):
        anchors = [Point(0, 0), Point(2, 0)]
        target = Point(1.0, 1.5)
        dists = [a.distance_to(target) for a in anchors]
        result = locate_transmitter(anchors, dists, position_hint=Point(1, 1))
        assert result.position.y > 0

    def test_outlier_distance_rejected_via_geometry(self):
        target = Point(3, 3)
        dists = [a.distance_to(target) for a in self.ANCHORS]
        dists[2] += 20.0
        result = locate_transmitter(self.ANCHORS, dists, tolerance_m=0.3)
        assert 2 not in result.used_indices
        assert result.position.distance_to(target) < 0.5

    def test_single_anchor_rejected(self):
        with pytest.raises(ValueError):
            locate_transmitter([Point(0, 0)], [1.0])

    @settings(max_examples=25, deadline=None)
    @given(
        x=st.floats(min_value=-8, max_value=8),
        y=st.floats(min_value=0.5, max_value=8),
    )
    def test_exact_recovery_property(self, x, y):
        """Noise-free three-anchor localization is exact."""
        target = Point(x, y)
        dists = [a.distance_to(target) for a in self.ANCHORS]
        result = locate_transmitter(self.ANCHORS, dists)
        assert result.position.distance_to(target) < 1e-4


class TestMotionDisambiguation:
    def test_picks_consistent_candidate(self):
        candidates = [Point(0, 2), Point(0, -2)]
        # We moved to (0, 1); the measured new distance is 1 -> true is (0,2).
        chosen = disambiguate_by_motion(
            candidates, Point(0, 0), Point(0, 1), new_distance_m=1.0
        )
        assert chosen == Point(0, 2)

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            disambiguate_by_motion([], Point(0, 0), Point(0, 1), 1.0)

    def test_single_candidate_returned_unconditionally(self):
        only = Point(3, 4)
        assert (
            disambiguate_by_motion([only], Point(0, 0), Point(1, 0), 99.0)
            is only
        )

    def test_motion_along_mirror_axis_cannot_disambiguate(self):
        """Moving *along* the anchor baseline keeps both mirror
        candidates equidistant — ``min`` then returns the first, which
        is exactly the failure mode the position tracks take over
        (`repro.loc.tracker.PositionTracker.select_candidate`)."""
        candidates = [Point(4, 2), Point(4, -2)]
        moved_to = Point(1, 0)  # still on the mirror axis
        d = candidates[0].distance_to(moved_to)
        chosen = disambiguate_by_motion(
            candidates, Point(0, 0), moved_to, new_distance_m=d
        )
        assert chosen is candidates[0]
        # Reversing candidate order flips the answer: genuinely ambiguous.
        chosen_rev = disambiguate_by_motion(
            list(reversed(candidates)), Point(0, 0), moved_to, new_distance_m=d
        )
        assert chosen_rev is candidates[1]

    def test_motion_off_axis_resolves_mirror_pair(self):
        """Any motion component off the mirror axis resolves the pair,
        whichever order the candidates arrive in."""
        true = Point(4, 2)
        mirror = Point(4, -2)
        moved_to = Point(0, 1)  # stepped toward the true side
        d = true.distance_to(moved_to)
        for candidates in ([true, mirror], [mirror, true]):
            chosen = disambiguate_by_motion(
                candidates, Point(0, 0), moved_to, new_distance_m=d
            )
            assert chosen is true

    def test_noisy_distance_still_picks_nearer_side(self):
        """Centimeter range noise must not flip a decisive geometry."""
        true = Point(4, 3)
        mirror = Point(4, -3)
        moved_to = Point(0, 2)
        d = true.distance_to(moved_to) + 0.05
        chosen = disambiguate_by_motion(
            [mirror, true], Point(0, 0), moved_to, new_distance_m=d
        )
        assert chosen is true
