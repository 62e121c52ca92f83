#!/usr/bin/env python3
"""Fleet localization: positions for many clients through one stack (§8).

Ranges are not the product — positions are.  This example places K
anchor antennas around an office floor and M walking clients among
them, then streams every client's sweeps through the full serving
stack each tick:

    sweep → StreamingRangingService (one coalesced engine flush for
    all M × K anchor links) → LocalizationService (one batched §8
    solve for all M circle systems) → PositionTrackerBank (per-client
    constant-velocity tracks gating out ghosted fixes)

Occasional body-blocked sweeps drag one anchor's range meters late —
the geometry filter and the tracks' MAD innovation gate are both on
duty, and the printout shows what each layer contributed.

A second section shows the **multi-AP regime**: real deployments range
against whichever APs each client can hear, so ``locate`` takes a
request-level anchor set (``anchor_indices``) naming the client's own
subset of the deployment's anchors.  Clients hearing as many anchors
still coalesce into one batched position solve (the solve queue groups
by anchor count, each client with its own anchor array), and each fix's
diagnostics come back in the client's own anchor frame with
``fix.anchor_indices`` mapping home.

Run:  python examples/fleet_localization.py
"""

import asyncio

from repro.core.ndft import steering_vector
from repro.core.tof import TofEstimatorConfig
from repro.experiments.runner import run_fleet_localization_experiment
from repro.loc import LocalizationService
from repro.net.service import RangingRequest
from repro.rf.constants import SPEED_OF_LIGHT
from repro.rf.geometry import Point
from repro.wifi.bands import US_BAND_PLAN


def multi_ap_anchor_sets() -> None:
    """Two clients, two different anchor subsets, one serving stack.

    Five APs cover the floor, but each client only hears the three
    nearest — the per-client multi-AP regime the FTM benchmarking
    literature measures.  Both locate calls coalesce their ranging
    into one engine flush, and their two 3-anchor systems solve in one
    batched position call.
    """
    import numpy as np

    freqs = US_BAND_PLAN.subset_5g().center_frequencies_hz
    rng = np.random.default_rng(7)
    deployment = [
        Point(0.0, 0.0),
        Point(12.0, 0.0),
        Point(12.0, 9.0),
        Point(0.0, 9.0),
        Point(6.0, 4.0),
    ]
    service = LocalizationService(
        deployment,
        config=TofEstimatorConfig(quirk_2g4=False, compute_profile=False),
    )
    clients = {
        # client id -> (true position, the APs it can hear)
        "west-client": (Point(2.5, 4.0), (0, 3, 4)),
        "east-client": (Point(9.5, 5.0), (1, 2, 4)),
    }

    def requests_for(cid: str) -> list[RangingRequest]:
        position, hears = clients[cid]
        rows = []
        for k, anchor_idx in enumerate(hears):
            tau2 = 2.0 * deployment[anchor_idx].distance_to(position) / SPEED_OF_LIGHT
            h = steering_vector(freqs, tau2)
            h = h + 0.3 * steering_vector(freqs, tau2 + 30e-9)
            h = h + 0.02 * (
                rng.normal(size=len(freqs)) + 1j * rng.normal(size=len(freqs))
            )
            rows.append(RangingRequest(f"{cid}:{k}", freqs, h))
        return rows

    async def run():
        fixes = await asyncio.gather(
            *(
                service.locate(
                    cid, requests_for(cid), anchor_indices=clients[cid][1]
                )
                for cid in clients
            )
        )
        await service.drain()
        return fixes

    try:
        fixes = asyncio.run(run())
    finally:
        service.close()

    print("\nmulti-AP anchor sets (5 APs, each client hears 3):")
    for fix in fixes:
        truth = clients[fix.client_id][0]
        error_cm = fix.position.distance_to(truth) * 100.0
        heard = ", ".join(f"AP{j}" for j in fix.anchor_indices)
        print(
            f"  {fix.client_id:12s} heard [{heard}] -> "
            f"({fix.position.x:5.2f}, {fix.position.y:5.2f}) m, "
            f"error {error_cm:5.1f} cm"
        )
    stats = service.stats
    print(
        f"  ranging coalescing : {service.ranging.stats.n_flushes} engine "
        f"flush(es) for all {service.ranging.stats.n_requests} anchor links"
    )
    print(
        f"  solve coalescing   : {stats.n_solves} batched solve(s) "
        f"(one per anchor count)"
    )


def main() -> None:
    result = run_fleet_localization_experiment(
        n_clients=8,
        n_anchors=4,
        n_ticks=12,
        rate_hz=5.0,
        speed_mps=0.6,
        outlier_probability=0.08,
    )

    print(
        f"{result.n_clients} walking clients, {result.n_anchors} anchors, "
        f"{result.n_fix_attempts} localization rounds:"
    )
    print(
        f"  fixes served       : {result.n_fixes} "
        f"({result.n_failed} failed rounds)"
    )
    print(
        f"  ranging coalescing : {result.n_range_flushes} engine flushes, "
        f"{result.mean_links_per_flush:.1f} anchor links per flush "
        f"(= {result.n_clients} clients x {result.n_anchors} anchors)"
    )
    print(
        f"  solve coalescing   : {result.n_solves} batched position solves, "
        f"{result.mean_clients_per_solve:.1f} clients per solve"
    )
    print(
        f"  median fix error   : {result.median_fix_error_m * 100:8.2f} cm "
        f"(paper Fig. 8: decimeter-scale)"
    )
    print(
        f"  raw fix RMSE       : {result.fix_rmse_m * 100:8.1f} cm "
        f"(body-blocked ghosts included)"
    )
    print(
        f"  tracked RMSE       : {result.tracked_rmse_m * 100:8.1f} cm "
        f"(position tracks, {result.synergy:.1f}x better)"
    )

    multi_ap_anchor_sets()


if __name__ == "__main__":
    main()
