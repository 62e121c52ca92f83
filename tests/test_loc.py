"""The fleet localization subsystem: batched solver, service, tracks.

The contract under test: ``locate_transmitter`` is the one-client call
of ``locate_transmitter_batch``, so a client solved alone gets its row
of a stacked solve; concurrent ``locate`` calls coalesce their anchor
ranging into single engine flushes and their circle systems into one
batched solve per anchor count, all in one hop to the solve worker; a
poisoned anchor or an unsolvable client fails alone, and the position
tracks reject teleporting fixes and disambiguate mirror candidates for
colinear-anchor deployments.
"""

import asyncio
import math
import re

import numpy as np
import pytest

from repro.core.batch import BatchTofEngine, unsolvable_reason
from repro.core.cfo import LinkCalibration
from repro.core.localization import (
    locate_transmitter,
)
from repro.core.localization_batch import (
    filter_geometry_consistent_batch,
    locate_transmitter_batch,
    refine_positions_batch,
)
from repro.core.ndft import steering_vector
from repro.core.tof import TofEstimatorConfig
from repro.loc import (
    LocConfig,
    LocalizationService,
    PositionTracker,
    PositionTrackerBank,
    PositionTrackerConfig,
)
from repro.net.service import RangingRequest, RangingService, plan_label
from repro.obs import REGISTRY
from repro.rf.constants import SPEED_OF_LIGHT
from repro.rf.geometry import Point
from repro.stream import StreamingRangingService
from repro.wifi.bands import US_BAND_PLAN

FREQS = US_BAND_PLAN.subset_5g().decimate(2).center_frequencies_hz

FAST_CONFIG = TofEstimatorConfig(quirk_2g4=False, compute_profile=False)

pytestmark = pytest.mark.asyncio

ANCHORS = [Point(0.0, 0.0), Point(10.0, 0.0), Point(10.0, 8.0), Point(0.0, 8.0)]


def anchor_products(position: Point, anchors, rng, noise=0.02):
    """Synthetic per-anchor 5 GHz reciprocity products for one client."""
    rows = []
    for anchor in anchors:
        tau2 = 2.0 * anchor.distance_to(position) / SPEED_OF_LIGHT
        h = steering_vector(FREQS, tau2)
        h = h + 0.3 * steering_vector(FREQS, tau2 + 30e-9)
        h = h + noise * (
            rng.normal(size=len(FREQS)) + 1j * rng.normal(size=len(FREQS))
        )
        rows.append(h)
    return rows


class TestBatchEquivalence:
    def test_batch_matches_scalar_everywhere(self, rng):
        """Noisy fleets with outliers and hints: the stack equals the
        one-client call row by row (pinned at 1e-9 m), with identical
        filter decisions and diagnostics."""
        anchors = ANCHORS
        n_clients = 60
        distances = np.empty((n_clients, len(anchors)))
        hints: list[Point | None] = []
        for n in range(n_clients):
            target = Point(rng.uniform(0.5, 9.5), rng.uniform(0.5, 7.5))
            d = [a.distance_to(target) + rng.normal(0.0, 0.05) for a in anchors]
            if n % 4 == 0:
                d[int(rng.integers(len(anchors)))] += rng.uniform(12.0, 25.0)
            distances[n] = d
            hints.append(
                Point(target.x + 0.3, target.y - 0.2) if n % 3 == 0 else None
            )
        batch = locate_transmitter_batch(
            anchors, distances, position_hints=hints
        )
        for n in range(n_clients):
            scalar = locate_transmitter(
                anchors, list(distances[n]), position_hint=hints[n]
            )
            assert scalar.position.distance_to(batch[n].position) <= 1e-9
            assert scalar.used_indices == batch[n].used_indices
            assert abs(
                scalar.residual_rms_m - batch[n].residual_rms_m
            ) <= 1e-9
            assert scalar.anchors_colinear == batch[n].anchors_colinear
            assert len(scalar.candidates) == len(batch[n].candidates)
            for cs, cb in zip(scalar.candidates, batch[n].candidates):
                assert cs.distance_to(cb) <= 1e-9
            assert [
                (d.index, d.against) for d in scalar.geometry_drops
            ] == [(d.index, d.against) for d in batch[n].geometry_drops]

    def test_two_anchor_mirror_candidates_exposed(self):
        anchors = [Point(0.0, 0.0), Point(2.0, 0.0)]
        target = Point(1.0, 1.5)
        d = np.array([[a.distance_to(target) for a in anchors]])
        result = locate_transmitter_batch(anchors, d)[0]
        assert len(result.candidates) == 2
        assert result.anchors_colinear
        ys = sorted(c.y for c in result.candidates)
        assert ys[0] == pytest.approx(-1.5, abs=1e-9)
        assert ys[1] == pytest.approx(1.5, abs=1e-9)

    def test_anchor_input_forms_agree(self, rng):
        """Shared Points, shared array and per-client stacks all work."""
        target = Point(3.0, 4.0)
        d = np.array([[a.distance_to(target) for a in ANCHORS]] * 3)
        shared_pts = locate_transmitter_batch(ANCHORS, d)
        shared_arr = locate_transmitter_batch(
            np.array([[a.x, a.y] for a in ANCHORS]), d
        )
        per_client = locate_transmitter_batch([list(ANCHORS)] * 3, d)
        for a, b, c in zip(shared_pts, shared_arr, per_client):
            assert a.position.distance_to(b.position) == 0.0
            assert a.position.distance_to(c.position) == 0.0
            assert a.position.distance_to(target) < 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            locate_transmitter_batch([Point(0, 0)], np.ones((2, 1)))
        with pytest.raises(ValueError):
            locate_transmitter_batch(ANCHORS, np.ones((2, 3)))  # count mismatch
        with pytest.raises(ValueError):
            locate_transmitter_batch(ANCHORS, -np.ones((2, 4)))
        with pytest.raises(ValueError):
            locate_transmitter_batch(ANCHORS, np.full((2, 4), np.nan))
        with pytest.raises(ValueError):
            locate_transmitter_batch(
                ANCHORS, np.ones((2, 4)), position_hints=[None]
            )
        with pytest.raises(ValueError):
            locate_transmitter_batch(
                [[Point(0, 0), Point(1, 0)], [Point(0, 0)]], np.ones((2, 2))
            )
        # The filter wants (N, K, 2) anchors with (N, K) distances and
        # names both shapes otherwise.
        for anchor_shape, dist_shape in (
            ((1, 1, 2), (1, 3)),
            ((2, 3, 2), (1, 3)),
            ((1, 3, 2), (1, 2)),
        ):
            with pytest.raises(ValueError) as excinfo:
                filter_geometry_consistent_batch(
                    np.zeros(anchor_shape), np.ones(dist_shape)
                )
            assert str(anchor_shape) in str(excinfo.value)
            assert str(dist_shape) in str(excinfo.value)

    def test_geometry_filter_batch_reports_violated_bounds(self):
        anchors = np.array([[[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]]])
        target = Point(3.0, 4.0)
        d = np.array(
            [[Point(0, 0).distance_to(target), Point(1, 0).distance_to(target) + 30.0, Point(0.5, 0.8).distance_to(target)]]
        )
        mask, drops = filter_geometry_consistent_batch(anchors, d)
        assert mask.tolist() == [[True, False, True]]
        (drop,) = drops[0]
        assert drop.index == 1
        assert drop.against in (0, 2)
        assert drop.excess_m > 25.0
        assert drop.bound_m < 2.0


class TestRefineKernel:
    def test_exact_distances_recover_exactly(self, rng):
        anchor_xy = np.array([[a.x, a.y] for a in ANCHORS])
        targets = np.column_stack(
            [rng.uniform(1, 9, 16), rng.uniform(1, 7, 16)]
        )
        dists = np.hypot(
            targets[:, None, 0] - anchor_xy[None, :, 0],
            targets[:, None, 1] - anchor_xy[None, :, 1],
        )
        seeds = targets + rng.normal(0.0, 0.5, targets.shape)
        positions, rms = refine_positions_batch(
            seeds, np.broadcast_to(anchor_xy, (16, 4, 2)), dists
        )
        assert np.max(np.hypot(*(positions - targets).T)) < 1e-9
        assert np.max(rms) < 1e-9

    def test_masked_padding_is_inert(self, rng):
        """A 3-anchor system padded to 5 with masked rows follows the
        exact same trajectory as the unpadded system."""
        anchor_xy = np.array([[0.0, 0.0], [6.0, 0.0], [3.0, 5.0]])
        target = np.array([2.0, 2.5])
        d = np.hypot(*(anchor_xy - target).T) + rng.normal(0, 0.05, 3)
        seed = target + np.array([0.4, -0.3])
        bare, bare_rms = refine_positions_batch(
            seed[None], anchor_xy[None], d[None]
        )
        padded_xy = np.vstack([anchor_xy, [[99.0, 99.0], [-99.0, 5.0]]])
        padded_d = np.concatenate([d, [1.0, 2.0]])
        mask = np.array([[True, True, True, False, False]])
        padded, padded_rms = refine_positions_batch(
            seed[None], padded_xy[None], padded_d[None], mask
        )
        assert np.array_equal(bare, padded)
        assert np.array_equal(bare_rms, padded_rms)

    def test_validation(self):
        with pytest.raises(ValueError):
            refine_positions_batch(np.zeros((1, 3)), np.zeros((1, 2, 2)), np.zeros((1, 2)))
        with pytest.raises(ValueError):
            refine_positions_batch(np.zeros((1, 2)), np.zeros((2, 2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            refine_positions_batch(np.zeros((1, 2)), np.zeros((1, 2, 2)), np.zeros((1, 3)))


class TestPositionTracker:
    def test_tracks_walk_and_rejects_teleports(self):
        rng = np.random.default_rng(9)
        tracker = PositionTracker(
            "walk", PositionTrackerConfig(fix_sigma_m=0.1)
        )
        dt = 0.2
        state = None
        for k in range(60):
            t = k * dt
            truth = Point(1.0 + 0.5 * t, 2.0 - 0.3 * t)
            fix = Point(
                truth.x + rng.normal(0, 0.1), truth.y + rng.normal(0, 0.1)
            )
            if rng.random() < 0.1:
                fix = Point(fix.x + 6.0, fix.y - 5.0)  # ghosted fix
            state = tracker.update(fix, t)
        truth = Point(1.0 + 0.5 * (59 * dt), 2.0 - 0.3 * (59 * dt))
        assert state.position.distance_to(truth) < 0.3
        assert abs(state.velocity.x - 0.5) < 0.25
        assert abs(state.velocity.y + 0.3) < 0.25
        assert tracker.n_rejected >= 2
        assert 0.0 < state.confidence <= 1.0

    def test_select_candidate_prefers_track_side(self):
        tracker = PositionTracker("mirror")
        for k in range(10):
            tracker.update(Point(0.1 * k, 2.0), 0.5 * k)
        chosen = tracker.select_candidate(
            [Point(1.2, 2.0), Point(1.2, -2.0)], 5.0
        )
        assert chosen.y > 0

    def test_bank_hint_lifecycle(self):
        bank = PositionTrackerBank()
        assert bank.position_hint("u", 0.0) is None
        bank.update("u", Point(1.0, 1.0), 0.0)
        bank.update("u", Point(1.2, 1.0), 1.0)
        hint = bank.position_hint("u", 2.0)
        assert hint is not None and hint.x > 1.2
        assert "u" in bank and len(bank) == 1
        assert bank.states()["u"].accepted
        bank.drop("u")
        assert "u" not in bank

    def test_rejects_non_string_client_id(self):
        """A config passed positionally must not become the client id."""
        with pytest.raises(ValueError, match="PositionTrackerConfig"):
            PositionTracker(PositionTrackerConfig())
        with pytest.raises(ValueError, match="''"):
            PositionTracker("")

    def test_validation_and_reset(self):
        tracker = PositionTracker()
        with pytest.raises(ValueError):
            tracker.position  # noqa: B018 — property raises before init
        with pytest.raises(ValueError):
            tracker.update(Point(math.nan, 0.0), 0.0)
        tracker.update(Point(0.0, 0.0), 0.0)
        with pytest.raises(ValueError):
            tracker.update(Point(0.0, 0.0), -1.0)
        with pytest.raises(ValueError):
            tracker.select_candidate([], 1.0)
        tracker.reset()
        assert not tracker.initialized
        with pytest.raises(ValueError):
            PositionTrackerConfig(fix_sigma_m=0.0)
        with pytest.raises(ValueError):
            PositionTrackerConfig(gate_window=2)


class TestLocalizationService:
    def test_fleet_coalesces_ranging_and_solving(self, rng, make_loc_service):
        """M concurrent locate() calls: one engine flush for all M×K
        anchor links, one batched solve for all M circle systems."""
        service = make_loc_service(ANCHORS, config=FAST_CONFIG)
        truths = {
            f"c{i}": Point(rng.uniform(1, 9), rng.uniform(1, 7))
            for i in range(5)
        }

        async def run():
            return await asyncio.gather(
                *(
                    service.locate(
                        cid,
                        [
                            RangingRequest(f"{cid}:{k}", FREQS, h)
                            for k, h in enumerate(
                                anchor_products(pos, ANCHORS, rng)
                            )
                        ],
                    )
                    for cid, pos in truths.items()
                )
            )

        fixes = asyncio.run(run())
        for fix in fixes:
            assert fix.ok
            assert fix.position.distance_to(truths[fix.client_id]) < 0.3
            assert fix.used_anchors == (0, 1, 2, 3)
            assert not fix.anchors_colinear
        assert service.ranging.stats.n_flushes == 1
        assert service.ranging.stats.largest_flush == 5 * len(ANCHORS)
        assert service.stats.n_solves == 1
        assert service.stats.largest_solve == 5
        assert service.stats.n_fixes == 5 and service.stats.n_failed == 0

    def test_poisoned_anchor_fails_alone(self, rng, make_loc_service):
        """NaN CSI toward one anchor degrades that client to the
        remaining anchors; coalesced peers are untouched."""
        service = make_loc_service(ANCHORS, config=FAST_CONFIG)
        good_pos, bad_pos = Point(3.0, 3.0), Point(6.0, 5.0)
        poisoned = np.full(len(FREQS), np.nan + 1j * np.nan)

        async def run():
            good_rows = anchor_products(good_pos, ANCHORS, rng)
            bad_rows = anchor_products(bad_pos, ANCHORS, rng)
            bad_rows[1] = poisoned
            return await asyncio.gather(
                service.locate(
                    "good",
                    [
                        RangingRequest(f"good:{k}", FREQS, h)
                        for k, h in enumerate(good_rows)
                    ],
                ),
                service.locate(
                    "bad",
                    [
                        RangingRequest(f"bad:{k}", FREQS, h)
                        for k, h in enumerate(bad_rows)
                    ],
                ),
            )

        good, bad = asyncio.run(run())
        assert good.ok and good.n_anchors_ok == 4
        assert bad.ok and bad.n_anchors_ok == 3
        assert bad.anchor_errors[1] is not None
        assert bad.used_anchors == (0, 2, 3)
        assert math.isnan(bad.distances_m[1])
        assert bad.position.distance_to(bad_pos) < 0.3

    def test_dead_anchor_screened_out_of_the_tick_solve(
        self, rng, make_loc_service
    ):
        """A tick whose clients include one with an all-zero anchor row
        reaches the engine as the boundary call over every link, where
        the engine names the dead row before any kernel runs, then one
        call over the other links, with no link-by-link retry; that
        client still gets a fix from its other anchors and the dead
        anchor's error names the reason."""
        calls: list[int] = []
        kernel_rows: list[np.ndarray] = []

        class CountingEngine(BatchTofEngine):
            def estimate_products_batch(self, frequencies_hz, channels, *args, **kwargs):
                calls.append(len(channels))
                return super().estimate_products_batch(
                    frequencies_hz, channels, *args, **kwargs
                )

            def _estimate_group_stack(self, name, freqs, stacked, *args, **kwargs):
                kernel_rows.extend(np.array(stacked))
                return super()._estimate_group_stack(
                    name, freqs, stacked, *args, **kwargs
                )

        ranging = StreamingRangingService(
            service=RangingService(engine=CountingEngine(FAST_CONFIG))
        )
        service = make_loc_service(ANCHORS, ranging=ranging)
        truths = {
            f"c{i}": Point(rng.uniform(1, 9), rng.uniform(1, 7))
            for i in range(4)
        }
        requests = {}
        for cid, pos in truths.items():
            rows = anchor_products(pos, ANCHORS, rng)
            if cid == "c2":
                rows[1] = np.zeros(len(FREQS), dtype=complex)
            requests[cid] = [
                RangingRequest(f"{cid}:{k}", FREQS, h) for k, h in enumerate(rows)
            ]
        label = plan_label(RangingService.plan_key(requests["c0"][0]))
        retries_before = REGISTRY.value("service.isolated_retries_total", plan=label)

        async def run():
            return await asyncio.gather(
                *(service.locate(cid, reqs) for cid, reqs in requests.items())
            )

        fixes = {fix.client_id: fix for fix in asyncio.run(run())}
        assert calls == [4 * len(ANCHORS), 4 * len(ANCHORS) - 1]
        assert all(unsolvable_reason(row) is None for row in kernel_rows)
        assert service.ranging.stats.n_flushes == 1
        assert (
            REGISTRY.value("service.isolated_retries_total", plan=label)
            == retries_before
        )
        assert all(fix.ok for fix in fixes.values())
        dead = fixes["c2"]
        assert dead.n_anchors_ok == 3
        assert "no signal power" in dead.anchor_errors[1]
        assert dead.used_anchors == (0, 2, 3)
        assert dead.position.distance_to(truths["c2"]) < 0.3

    def test_negative_range_dropped_like_a_non_finite_one(
        self, rng, make_loc_service
    ):
        """A calibration bias larger than a link's ToF gives a negative
        range: that anchor drops out of its client's fix with an error
        naming the range, the client is solved from the other three,
        and the tick's two anchor counts make two solves."""
        service = make_loc_service(ANCHORS, config=FAST_CONFIG)
        truths = {"a": Point(3.0, 3.0), "b": Point(7.0, 5.0), "c": Point(4.0, 5.0)}
        too_large = LinkCalibration(tof_bias_s=60e-9)  # 18 m > any range here
        requests = {
            cid: [
                RangingRequest(
                    f"{cid}:{k}",
                    FREQS,
                    h,
                    calibration=too_large if (cid, k) == ("c", 0) else None,
                )
                for k, h in enumerate(anchor_products(pos, ANCHORS, rng))
            ]
            for cid, pos in truths.items()
        }

        async def run():
            return await asyncio.gather(
                *(service.locate(cid, reqs) for cid, reqs in requests.items())
            )

        fixes = {fix.client_id: fix for fix in asyncio.run(run())}
        assert all(fix.ok for fix in fixes.values())
        c = fixes["c"]
        assert c.used_anchors == (1, 2, 3)
        assert re.fullmatch(
            r"negative distance estimate \(-\d+\.\d\d m\)", c.anchor_errors[0]
        )
        assert math.isnan(c.distances_m[0])
        assert c.position.distance_to(truths["c"]) < 0.3
        assert fixes["a"].used_anchors == fixes["b"].used_anchors == (0, 1, 2, 3)
        assert service.stats.n_solves == 2
        assert service.stats.largest_solve == 2
        assert service.stats.n_anchor_range_failures == 1

    def test_too_few_anchors_fails_with_error(self, rng, make_loc_service):
        service = make_loc_service(ANCHORS, config=FAST_CONFIG)
        poisoned = np.full(len(FREQS), np.nan + 1j * np.nan)

        async def run():
            rows = anchor_products(Point(4.0, 4.0), ANCHORS, rng)
            rows[0] = rows[1] = rows[2] = poisoned
            return await service.locate(
                "starved",
                [
                    RangingRequest(f"s:{k}", FREQS, h)
                    for k, h in enumerate(rows)
                ],
            )

        fix = asyncio.run(run())
        assert not fix.ok
        assert "1 of 4 anchors" in fix.error
        assert fix.n_anchors_ok == 1
        assert service.stats.n_failed == 1

    def test_ghosted_range_reported_in_geometry_drops(self, rng, make_loc_service):
        """An anchor range ghosted far late survives ranging but is
        dropped by the geometry filter — and the fix says why."""
        service = make_loc_service(ANCHORS, config=FAST_CONFIG)
        truth = Point(2.5, 3.5)

        async def run():
            rows = anchor_products(truth, ANCHORS, rng)
            ghost_tau = 2.0 * (ANCHORS[2].distance_to(truth) + 40.0) / SPEED_OF_LIGHT
            rows[2] = steering_vector(FREQS, ghost_tau)
            return await service.locate(
                "ghosted",
                [
                    RangingRequest(f"g:{k}", FREQS, h)
                    for k, h in enumerate(rows)
                ],
            )

        fix = asyncio.run(run())
        assert fix.ok
        assert 2 not in fix.used_anchors
        assert fix.position.distance_to(truth) < 0.3
        (drop,) = fix.geometry_drops
        assert drop.index == 2
        assert drop.excess_m > 1.0  # the +40 m ghost, minus the bound's slack
        assert drop.bound_m == pytest.approx(
            ANCHORS[2].distance_to(ANCHORS[drop.against]) + 0.3
        )
        assert drop.against in fix.used_anchors

    def test_track_hint_resolves_colinear_mirror(self, rng, make_loc_service):
        """Colinear anchors cannot tell a client from its mirror image;
        after one hinted fix, the position track picks the side —
        superseding disambiguate_by_motion for moving clients."""
        line = [Point(0.0, 0.0), Point(5.0, 0.0), Point(10.0, 0.0)]
        service = make_loc_service(
            line, config=FAST_CONFIG, trackers=PositionTrackerBank()
        )

        def truth(t):
            return Point(3.0 + 0.5 * t, 3.0)

        async def run():
            fixes = []
            for k in range(4):
                t = 0.5 * (k + 1)
                hint = Point(3.0, 2.0) if k == 0 else None
                fixes.append(
                    await service.locate(
                        "walker",
                        [
                            RangingRequest(f"w:{i}", FREQS, h)
                            for i, h in enumerate(
                                anchor_products(truth(t), line, rng)
                            )
                        ],
                        time_s=t,
                        position_hint=hint,
                    )
                )
            return fixes

        fixes = asyncio.run(run())
        for k, fix in enumerate(fixes):
            assert fix.ok
            assert fix.anchors_colinear
            assert fix.position.y > 0, f"tick {k} picked the mirror side"
            assert fix.position.distance_to(truth(0.5 * (k + 1))) < 0.3
        # The later ticks had no explicit hint: the track supplied it.
        assert fixes[-1].track is not None
        assert fixes[-1].track.n_accepted == 4

    def test_isolated_retry_keeps_configured_tolerance(
        self, rng, monkeypatch, make_loc_service
    ):
        """When the batched solve falls back to per-client retries, the
        retries must honor LocConfig.tolerance_m — not the default —
        and the stats must count the retries as individual solves."""
        import repro.loc.service as loc_service

        def explode(*args, **kwargs):
            raise ValueError("degenerate stack")

        monkeypatch.setattr(loc_service, "locate_transmitter_batch", explode)
        # Tolerance wide enough to keep a +14.5 m ghosted range that the
        # 0.3 m default would drop.
        service = make_loc_service(
            ANCHORS,
            config=FAST_CONFIG,
            loc=loc_service.LocConfig(tolerance_m=5.0),
        )
        truth = Point(3.0, 3.0)

        async def run():
            rows = anchor_products(truth, ANCHORS, rng)
            ghost_tau = (
                2.0 * (ANCHORS[0].distance_to(truth) + 14.5) / SPEED_OF_LIGHT
            )
            rows[0] = steering_vector(FREQS, ghost_tau)
            reqs = [
                RangingRequest(f"t:{k}", FREQS, h) for k, h in enumerate(rows)
            ]
            clean = [
                RangingRequest(f"c:{k}", FREQS, h)
                for k, h in enumerate(anchor_products(truth, ANCHORS, rng))
            ]
            return await asyncio.gather(
                service.locate("tolerant", reqs),
                service.locate("clean", clean),
            )

        tolerant, clean = asyncio.run(run())
        assert tolerant.ok and clean.ok
        # At tolerance 5.0 the ghost survives the geometry filter; the
        # old behavior (retry at the 0.3 default) would have dropped it.
        assert tolerant.used_anchors == (0, 1, 2, 3)
        assert tolerant.geometry_drops == ()
        # Two per-client retries ran — no batching actually happened.
        assert service.stats.n_solves == 2
        assert service.stats.largest_solve == 1

    def test_close_releases_flush_worker(self, rng):
        service = LocalizationService(ANCHORS, config=FAST_CONFIG)

        async def run():
            return await service.locate(
                "c",
                [
                    RangingRequest(f"c:{k}", FREQS, h)
                    for k, h in enumerate(
                        anchor_products(Point(4.0, 4.0), ANCHORS, rng)
                    )
                ],
            )

        assert asyncio.run(run()).ok
        service.close()
        service.close()  # idempotent
        assert service.ranging._executor is None
        assert asyncio.run(run()).ok  # still usable afterwards
        service.close()

    def test_validation(self, make_loc_service):
        with pytest.raises(ValueError):
            LocalizationService([Point(0, 0)])
        service = make_loc_service(ANCHORS, config=FAST_CONFIG)

        async def run():
            await service.locate(
                "short", [RangingRequest("x", FREQS, np.ones(len(FREQS)))]
            )

        with pytest.raises(ValueError):
            asyncio.run(run())


class TestRequestLevelAnchorSets:
    """Per-request anchor subsets (the PR-5 multi-AP tentpole)."""

    # Off the rectangle's diagonals: every 3-subset used below is
    # non-colinear, so no mirror ambiguity muddies the assertions.
    ANCHORS5 = ANCHORS + [Point(5.0, 3.0)]

    def _requests(self, cid, position, indices, rng):
        anchors = [self.ANCHORS5[i] for i in indices]
        return [
            RangingRequest(f"{cid}:{k}", FREQS, h)
            for k, h in enumerate(anchor_products(position, anchors, rng))
        ]

    def test_subset_matches_dedicated_deployment(self, rng, make_loc_service):
        """A client naming a 3-anchor subset of a 5-anchor deployment
        gets the same fix a 3-anchor deployment would give it."""
        subset = (0, 2, 4)
        truth = Point(3.5, 3.0)
        rows = anchor_products(
            truth, [self.ANCHORS5[i] for i in subset], rng
        )
        big = make_loc_service(self.ANCHORS5, config=FAST_CONFIG)
        dedicated = make_loc_service(
            [self.ANCHORS5[i] for i in subset], config=FAST_CONFIG
        )

        def reqs(prefix):
            return [
                RangingRequest(f"{prefix}:{k}", FREQS, h)
                for k, h in enumerate(rows)
            ]

        sub_fix = asyncio.run(
            big.locate("sub", reqs("sub"), anchor_indices=subset)
        )
        ded_fix = asyncio.run(dedicated.locate("ded", reqs("ded")))
        assert sub_fix.ok and ded_fix.ok
        assert sub_fix.position.distance_to(ded_fix.position) <= 1e-9
        assert sub_fix.position.distance_to(truth) < 0.3
        # Diagnostics are in the client frame; anchor_indices maps back.
        assert sub_fix.used_anchors == ded_fix.used_anchors == (0, 1, 2)
        assert sub_fix.anchor_indices == subset
        assert ded_fix.anchor_indices == (0, 1, 2)
        assert len(sub_fix.distances_m) == 3

    def test_clients_sharing_a_signature_coalesce(self, rng, make_loc_service):
        """Two clients on one subset and a third on another subset of
        the same size batch into one solve, with per-client anchors."""
        service = make_loc_service(self.ANCHORS5, config=FAST_CONFIG)
        set_a, set_b = (0, 1, 2), (1, 3, 4)
        truths = {
            "a1": Point(2.0, 3.0),
            "a2": Point(7.0, 5.0),
            "b1": Point(4.0, 6.0),
        }
        subsets = {"a1": set_a, "a2": set_a, "b1": set_b}

        async def run():
            return await asyncio.gather(
                *(
                    service.locate(
                        cid,
                        self._requests(cid, truths[cid], subsets[cid], rng),
                        anchor_indices=subsets[cid],
                    )
                    for cid in truths
                )
            )

        fixes = asyncio.run(run())
        for fix in fixes:
            assert fix.ok
            assert fix.position.distance_to(truths[fix.client_id]) < 0.3
            assert fix.anchor_indices == subsets[fix.client_id]
        # One micro-batch flush for all 3 × 3 anchor links; one batched
        # solve, since every client has three usable anchors.
        assert service.ranging.stats.n_flushes == 1
        assert service.ranging.stats.largest_flush == 9
        assert service.stats.n_solves == 1
        assert service.stats.largest_solve == 3

    def test_one_solve_hop_per_flush_across_anchor_counts(
        self, rng, monkeypatch, make_loc_service
    ):
        """Two 3-anchor clients on different subsets and one 4-anchor
        client: one batched solve per anchor count, and both solves
        reach the solve worker in a single executor submit."""
        from concurrent.futures import ThreadPoolExecutor

        import repro.loc.service as loc_service

        submits = []

        class CountingPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                submits.append(fn)
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(loc_service, "ThreadPoolExecutor", CountingPool)
        service = make_loc_service(self.ANCHORS5, config=FAST_CONFIG)
        subsets = {"a": (0, 1, 2), "b": (1, 3, 4), "c": (0, 1, 2, 3)}
        truths = {
            "a": Point(2.0, 3.0),
            "b": Point(4.0, 6.0),
            "c": Point(7.0, 5.0),
        }

        async def run():
            return await asyncio.gather(
                *(
                    service.locate(
                        cid,
                        self._requests(cid, truths[cid], subsets[cid], rng),
                        anchor_indices=subsets[cid],
                    )
                    for cid in truths
                )
            )

        fixes = asyncio.run(run())
        for fix in fixes:
            assert fix.ok
            assert fix.position.distance_to(truths[fix.client_id]) < 0.3
            assert fix.anchor_indices == subsets[fix.client_id]
        assert service.ranging.stats.n_flushes == 1
        assert service.stats.n_solves == 2
        assert service.stats.largest_solve == 2
        assert len(submits) == 1

    def test_subset_diagnostics_stay_in_client_frame(self, rng, make_loc_service):
        """A ghosted range inside a subset is reported at the client's
        position index, with anchor_indices giving the deployment map."""
        service = make_loc_service(
            self.ANCHORS5, config=FAST_CONFIG, loc=LocConfig(tolerance_m=0.3)
        )
        subset = (4, 1, 2, 3)  # deliberately not sorted, not starting at 0
        truth = Point(5.0, 3.5)
        rows = anchor_products(
            truth, [self.ANCHORS5[i] for i in subset], rng
        )
        # Ghost the client-frame position 2 (deployment anchor 2).
        ghost_tau = (
            2.0 * (self.ANCHORS5[2].distance_to(truth) + 40.0) / SPEED_OF_LIGHT
        )
        rows[2] = steering_vector(FREQS, ghost_tau)
        fix = asyncio.run(
            service.locate(
                "g",
                [
                    RangingRequest(f"g:{k}", FREQS, h)
                    for k, h in enumerate(rows)
                ],
                anchor_indices=subset,
            )
        )
        assert fix.ok
        assert 2 not in fix.used_anchors  # client frame
        (drop,) = fix.geometry_drops
        assert drop.index == 2
        assert fix.anchor_indices[drop.index] == 2  # deployment frame
        assert fix.position.distance_to(truth) < 0.3

    def test_anchor_set_validation(self, rng, make_loc_service):
        service = make_loc_service(ANCHORS, config=FAST_CONFIG)
        request = RangingRequest("x", FREQS, np.ones(len(FREQS)))

        async def locate(**kwargs):
            await service.locate("v", **kwargs)

        with pytest.raises(ValueError, match="outside"):
            asyncio.run(
                locate(requests=[request, request], anchor_indices=(0, 9))
            )
        with pytest.raises(ValueError, match="duplicate"):
            asyncio.run(
                locate(requests=[request, request], anchor_indices=(1, 1))
            )
        with pytest.raises(ValueError, match=">= 2"):
            asyncio.run(locate(requests=[request], anchor_indices=(0,)))
        with pytest.raises(ValueError, match="requests for"):
            asyncio.run(
                locate(requests=[request], anchor_indices=(0, 1, 2))
            )
        for bad in (1.7, True):
            with pytest.raises(
                ValueError, match=f"client 'v': anchor index {bad!r} is not an integer"
            ):
                asyncio.run(
                    locate(requests=[request] * 3, anchor_indices=[0, bad, 2])
                )


class TestPositionTrackerBankEviction:
    """Idle eviction bounds the per-client bank (PR-5 leak fix)."""

    def test_max_tracks_and_ttl(self):
        bank = PositionTrackerBank(max_tracks=2, idle_ttl_s=None)
        bank.update("a", Point(0.0, 0.0), 0.0)
        bank.update("b", Point(1.0, 0.0), 1.0)
        bank.update("c", Point(2.0, 0.0), 2.0)
        assert len(bank) == 2 and "a" not in bank
        ttl_bank = PositionTrackerBank(idle_ttl_s=10.0)
        ttl_bank.update("old", Point(0.0, 0.0), 0.0)
        ttl_bank.update("live", Point(1.0, 0.0), 20.0)
        assert "old" not in ttl_bank and "live" in ttl_bank
        assert ttl_bank.n_evicted == 1

    def test_evicted_client_loses_its_hint(self):
        bank = PositionTrackerBank(idle_ttl_s=10.0)
        bank.update("u", Point(1.0, 1.0), 0.0)
        bank.update("u", Point(1.2, 1.0), 1.0)
        assert bank.position_hint("u", 2.0) is not None
        bank.update("v", Point(5.0, 5.0), 50.0)  # u goes stale
        assert bank.position_hint("u", 51.0) is None

    def test_defaults_never_evict_in_suite_scale_use(self):
        bank = PositionTrackerBank()
        for i in range(64):
            bank.update(f"client-{i}", Point(float(i), 0.0), float(i))
        assert len(bank) == 64 and bank.n_evicted == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            PositionTrackerBank(max_tracks=0)
        with pytest.raises(ValueError):
            PositionTrackerBank(idle_ttl_s=-1.0)


class TestFleetExperiment:
    def test_fleet_experiment_end_to_end(self):
        from repro.experiments.runner import run_fleet_localization_experiment

        result = run_fleet_localization_experiment(
            n_clients=3,
            n_anchors=3,
            n_ticks=3,
            outlier_probability=0.0,
            noise=0.02,
        )
        assert result.n_fixes == 9 and result.n_failed == 0
        assert result.median_fix_error_m < 0.1
        # Every tick's 3 × 3 anchor links coalesced into one flush, and
        # all three circle systems solved in one batched call per tick.
        assert result.mean_links_per_flush == pytest.approx(9.0)
        assert result.mean_clients_per_solve == pytest.approx(3.0)

    def test_fleet_experiment_multi_ap_subsets(self):
        """The multi-AP regime end to end: every client hears only a
        3-anchor subset of the 5-anchor deployment, locates through
        request-level anchor sets, and still fixes accurately."""
        from repro.experiments.runner import run_fleet_localization_experiment

        result = run_fleet_localization_experiment(
            n_clients=4,
            n_anchors=5,
            n_ticks=2,
            anchors_per_client=3,
            outlier_probability=0.0,
            noise=0.02,
        )
        assert result.n_fixes == 8 and result.n_failed == 0
        assert result.median_fix_error_m < 0.1
        # 4 clients × 3 anchors per tick, still one flush per tick.
        assert result.mean_links_per_flush == pytest.approx(12.0)

    def test_fleet_experiment_validation(self):
        from repro.experiments.runner import run_fleet_localization_experiment

        with pytest.raises(ValueError):
            run_fleet_localization_experiment(n_clients=0)
        with pytest.raises(ValueError):
            run_fleet_localization_experiment(n_anchors=2)
        with pytest.raises(ValueError):
            run_fleet_localization_experiment(n_ticks=0)
        with pytest.raises(ValueError):
            run_fleet_localization_experiment(
                n_anchors=4, anchors_per_client=2
            )
        with pytest.raises(ValueError):
            run_fleet_localization_experiment(
                n_anchors=4, anchors_per_client=5
            )


class TestSolveOffload:
    """Position solves run on the solve worker, off the event loop."""

    def test_position_solve_runs_off_the_event_loop(
        self, rng, monkeypatch, make_loc_service
    ):
        """The flush's solver call must run on the solve worker, not in
        the loop callback.  The probe solver schedules a loop callback
        and then waits for it: if the solve were inline, the loop could
        not run the callback until the solve returned — a deadlock the
        5 s timeout converts into a clear failure."""
        import threading

        import repro.loc.service as loc_service

        real = loc_service.locate_transmitter_batch
        release = threading.Event()
        captured: dict = {}

        def blocking_solve(*args, **kwargs):
            captured["loop"].call_soon_threadsafe(release.set)
            assert release.wait(timeout=5.0), (
                "position solve blocked the event loop"
            )
            return real(*args, **kwargs)

        monkeypatch.setattr(
            loc_service, "locate_transmitter_batch", blocking_solve
        )
        service = make_loc_service(ANCHORS, config=FAST_CONFIG)
        truth = Point(3.0, 3.0)

        async def run():
            captured["loop"] = asyncio.get_running_loop()
            return await service.locate(
                "c",
                [
                    RangingRequest(f"c:{k}", FREQS, h)
                    for k, h in enumerate(anchor_products(truth, ANCHORS, rng))
                ],
            )

        fix = asyncio.run(run())
        assert fix.ok
        assert fix.position.distance_to(truth) < 0.3

    def test_drain_awaits_inflight_solves(self, rng, make_loc_service):
        """drain() returns only after in-flight offloaded solve tasks
        resolve the callers' futures — stats are consistent after."""
        service = make_loc_service(ANCHORS, config=FAST_CONFIG)
        truth = Point(4.0, 4.0)

        async def run():
            task = asyncio.ensure_future(
                service.locate(
                    "c",
                    [
                        RangingRequest(f"c:{k}", FREQS, h)
                        for k, h in enumerate(
                            anchor_products(truth, ANCHORS, rng)
                        )
                    ],
                )
            )
            # Let the round reach the offloaded solve stage: ranges
            # resolved, solve task spawned (or already finished).
            while not service._inflight and not task.done():
                await asyncio.sleep(0.001)
            await service.drain()
            assert task.done()
            return task.result()

        fix = asyncio.run(run())
        assert fix.ok
        assert service.stats.n_fixes == 1
