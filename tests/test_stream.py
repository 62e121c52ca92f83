"""The streaming ranging subsystem: micro-batching, trackers, sessions.

The contract under test: a link ranged through the asyncio streaming
front end gets the *same* estimate as a one-shot
:meth:`RangingService.submit` (≤ 1e-12 s), concurrent streams coalesce
into single engine flushes, a poisoned stream fails alone without
stalling its coalesced peers, and the per-link Kalman trackers reject
ghost outliers the raw estimator lets through.
"""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.core.cfo import LinkCalibration
from repro.core.ndft import steering_vector
from repro.core.sparse import SparseSolverConfig
from repro.core.tof import TofEstimatorConfig
from repro.net.service import LinkRequest, RangingRequest, RangingService
from repro.rf.constants import SPEED_OF_LIGHT
from repro.stream import (
    LinkTracker,
    StreamClient,
    StreamConfig,
    StreamSession,
    StreamingRangingService,
    SweepArrival,
    SweepRequest,
    TrackerBank,
    TrackerConfig,
    schedule_sweep_arrivals,
)
from repro.wifi.bands import US_BAND_PLAN

FREQS = US_BAND_PLAN.subset_5g().center_frequencies_hz

FAST_CONFIG = TofEstimatorConfig(
    quirk_2g4=False,
    compute_profile=False,
    sparse=SparseSolverConfig(max_iterations=300),
)

pytestmark = pytest.mark.asyncio


def one_link(rng, freqs, tau=30e-9):
    h = steering_vector(freqs, 2 * tau) + 0.4 * steering_vector(
        freqs, 2 * tau + 25e-9
    )
    return h + 0.01 * (
        rng.normal(size=len(freqs)) + 1j * rng.normal(size=len(freqs))
    )


class TestStreamingEquivalence:
    def test_concurrent_streams_match_one_shot_batch(self, rng, make_streaming):
        """N concurrent 1-link streams == one N-link submit, ≤ 1e-12 s."""
        requests = [
            RangingRequest(f"s{i}", FREQS, one_link(rng, FREQS, 15e-9 + 6e-9 * i))
            for i in range(6)
        ]
        one_shot = RangingService(FAST_CONFIG).submit(requests)
        streaming = make_streaming(FAST_CONFIG)

        async def run():
            return await asyncio.gather(*(streaming.submit(r) for r in requests))

        streamed = asyncio.run(run())
        assert [r.link_id for r in streamed] == [r.link_id for r in requests]
        for a, b in zip(streamed, one_shot):
            assert abs(a.estimate.tof_s - b.estimate.tof_s) <= 1e-12
        # The whole gather coalesced into a single engine flush.
        assert streaming.stats.n_flushes == 1
        assert streaming.stats.largest_flush == len(requests)

    def test_sequential_submits_also_match(self, rng, make_streaming):
        """Even one-at-a-time streams (flush per request) stay exact."""
        request = RangingRequest("solo", FREQS, one_link(rng, FREQS))
        want = RangingService(FAST_CONFIG).submit([request])[0]
        streaming = make_streaming(FAST_CONFIG, StreamConfig(max_wait_s=0.0))

        async def run():
            return await streaming.submit(request)

        got = asyncio.run(run())
        assert abs(got.estimate.tof_s - want.estimate.tof_s) <= 1e-12

    def test_mixed_band_plans_coalesce_in_one_flush(self, rng, make_streaming):
        """Streams on different plans share a flush; the flush then
        dispatches one plan group per band plan to the worker pool."""
        small = US_BAND_PLAN.subset_5g().decimate(2).center_frequencies_hz
        requests = [
            RangingRequest("a", FREQS, one_link(rng, FREQS)),
            RangingRequest("b", small, one_link(rng, small)),
            RangingRequest("c", FREQS, one_link(rng, FREQS, 40e-9)),
        ]
        want = RangingService(FAST_CONFIG).submit(requests)
        streaming = make_streaming(FAST_CONFIG)

        async def run():
            return await asyncio.gather(*(streaming.submit(r) for r in requests))

        got = asyncio.run(run())
        for a, b in zip(got, want):
            assert abs(a.estimate.tof_s - b.estimate.tof_s) <= 1e-12
        assert streaming.stats.n_flushes == 1
        assert streaming.stats.n_groups == 2

    def test_sweep_requests_match_sweeps_batch(
        self, rng, small_plan, fast_config, make_streaming
    ):
        from repro.rf.environment import free_space
        from repro.rf.geometry import Point
        from repro.wifi.hardware import INTEL_5300
        from repro.wifi.radio import SimulatedLink

        sweeps_per_link = []
        for i in range(2):
            link = SimulatedLink(
                environment=free_space(),
                tx_position=Point(0.0, 0.0),
                rx_position=Point(2.0 + i, 0.0),
                tx_state=INTEL_5300.sample_device_state(rng),
                rx_state=INTEL_5300.sample_device_state(rng),
                band_plan=small_plan,
                rng=rng,
            )
            sweeps_per_link.append([link.sweep(2)])
        cal = LinkCalibration(tof_bias_s=1e-9, coarse_bias_s=350e-9)
        streaming = make_streaming(fast_config)
        want = streaming.engine.estimate_sweeps_batch(
            sweeps_per_link, [cal, cal]
        )

        async def run():
            return await asyncio.gather(
                *(
                    streaming.submit(SweepRequest(f"sw{i}", sweeps, cal))
                    for i, sweeps in enumerate(sweeps_per_link)
                )
            )

        got = asyncio.run(run())
        for response, estimate in zip(got, want):
            assert abs(response.estimate.tof_s - estimate.tof_s) <= 1e-12


class TestStreamIsolation:
    def test_poisoned_stream_fails_alone(self, rng, make_streaming):
        """NaN CSI on one stream must not stall or kill coalesced peers."""
        poisoned = np.full(len(FREQS), np.nan + 1j * np.nan)
        requests = [
            RangingRequest("alive-1", FREQS, one_link(rng, FREQS)),
            RangingRequest("poisoned", FREQS, poisoned),
            RangingRequest("alive-2", FREQS, one_link(rng, FREQS, 45e-9)),
        ]
        want = RangingService(FAST_CONFIG).submit(
            [requests[0], requests[2]]
        )
        streaming = make_streaming(FAST_CONFIG)

        async def run():
            return await asyncio.wait_for(
                asyncio.gather(*(streaming.submit(r) for r in requests)),
                timeout=60.0,
            )

        got = asyncio.run(run())
        assert got[0].ok and got[2].ok
        assert not got[1].ok
        assert got[1].error
        assert abs(got[0].estimate.tof_s - want[0].estimate.tof_s) <= 1e-12
        assert abs(got[2].estimate.tof_s - want[1].estimate.tof_s) <= 1e-12
        assert streaming.stats.n_failed == 1

    def test_dead_sweep_stream_fails_alone(
        self, rng, small_plan, fast_config, make_streaming
    ):
        """A sweep-level stream with garbage CSI fails alone too."""
        from repro.rf.environment import free_space
        from repro.rf.geometry import Point
        from repro.wifi.hardware import INTEL_5300
        from repro.wifi.radio import SimulatedLink

        link = SimulatedLink(
            environment=free_space(),
            tx_position=Point(0.0, 0.0),
            rx_position=Point(3.0, 0.0),
            tx_state=INTEL_5300.sample_device_state(rng),
            rx_state=INTEL_5300.sample_device_state(rng),
            band_plan=small_plan,
            rng=rng,
        )
        good = link.sweep(2)
        poisoned = link.sweep(2)
        for m in poisoned:
            m.forward.csi[:] = np.nan
            m.reverse.csi[:] = np.nan
        streaming = make_streaming(fast_config)

        async def run():
            return await asyncio.wait_for(
                asyncio.gather(
                    streaming.submit(SweepRequest("good", (good,))),
                    streaming.submit(SweepRequest("bad", (poisoned,))),
                ),
                timeout=60.0,
            )

        got = asyncio.run(run())
        assert got[0].ok
        assert not got[1].ok and got[1].error

    def test_partial_nan_sweep_fails_named_and_alone(
        self, rng, small_plan, fast_config, make_streaming
    ):
        """One NaN subcarrier fails its link with the front end's named
        error, and the flush-mate gets the ToF it gets solved alone."""
        from repro.core.batch import BatchTofEngine
        from repro.rf.environment import free_space
        from repro.rf.geometry import Point
        from repro.wifi.hardware import INTEL_5300
        from repro.wifi.radio import SimulatedLink

        link = SimulatedLink(
            environment=free_space(),
            tx_position=Point(0.0, 0.0),
            rx_position=Point(3.0, 0.0),
            tx_state=INTEL_5300.sample_device_state(rng),
            rx_state=INTEL_5300.sample_device_state(rng),
            band_plan=small_plan,
            rng=rng,
        )
        good = link.sweep(2)
        poisoned = link.sweep(2)
        poisoned[5].reverse.csi[3] = np.nan
        alone = BatchTofEngine(fast_config).estimate_sweeps_batch([[good]])[0]
        streaming = make_streaming(fast_config)

        async def run():
            return await asyncio.wait_for(
                asyncio.gather(
                    streaming.submit(SweepRequest("good", (good,))),
                    streaming.submit(SweepRequest("bad", (poisoned,))),
                ),
                timeout=60.0,
            )

        got = asyncio.run(run())
        assert streaming.stats.n_flushes == 1
        assert got[0].ok
        assert abs(got[0].estimate.tof_s - alone.tof_s) <= 1e-12
        assert not got[1].ok
        assert got[1].error.startswith("non-finite CSI on band")
        assert got[1].error.endswith("reverse direction")
        assert streaming.stats.n_failed_sweeps == 1

    def test_all_zero_sweep_fails_named_and_alone(
        self, rng, small_plan, fast_config, make_streaming
    ):
        """A dead radio's all-zero sweep fails its link with the engine's
        screen reason, and the flush-mate gets the ToF it gets solved
        alone, bit for bit."""
        from repro.core.batch import BatchTofEngine
        from repro.rf.environment import free_space
        from repro.rf.geometry import Point
        from repro.wifi.hardware import INTEL_5300
        from repro.wifi.radio import SimulatedLink

        link = SimulatedLink(
            environment=free_space(),
            tx_position=Point(0.0, 0.0),
            rx_position=Point(3.0, 0.0),
            tx_state=INTEL_5300.sample_device_state(rng),
            rx_state=INTEL_5300.sample_device_state(rng),
            band_plan=small_plan,
            rng=rng,
        )
        good = link.sweep(2)
        dead = link.sweep(2)
        for m in dead:
            m.forward.csi[:] = 0.0
            m.reverse.csi[:] = 0.0
        alone = BatchTofEngine(fast_config).estimate_sweeps_batch([[good]])[0]
        streaming = make_streaming(fast_config)

        async def run():
            return await asyncio.wait_for(
                asyncio.gather(
                    streaming.submit(SweepRequest("good", (good,))),
                    streaming.submit(SweepRequest("dead", (dead,))),
                ),
                timeout=60.0,
            )

        got = asyncio.run(run())
        assert streaming.stats.n_flushes == 1
        assert got[0].ok
        assert got[0].estimate.tof_s == alone.tof_s
        assert not got[1].ok
        assert "(all group): no signal power (all products zero)" in got[1].error
        assert streaming.stats.n_failed_sweeps == 1


class TestMicroBatching:
    def test_max_batch_links_forces_early_flush(self, rng, make_streaming):
        streaming = make_streaming(
            FAST_CONFIG, StreamConfig(max_wait_s=60.0, max_batch_links=2)
        )
        requests = [
            RangingRequest(f"m{i}", FREQS, one_link(rng, FREQS)) for i in range(4)
        ]

        async def run():
            return await asyncio.wait_for(
                asyncio.gather(*(streaming.submit(r) for r in requests)),
                timeout=60.0,
            )

        got = asyncio.run(run())
        assert all(r.ok for r in got)
        # A 60 s window never fired: the size cap split 4 into 2 + 2.
        assert streaming.stats.n_flushes == 2
        assert streaming.stats.largest_flush == 2

    def test_drain_flushes_without_waiting_out_the_window(self, rng, make_streaming):
        streaming = make_streaming(
            FAST_CONFIG, StreamConfig(max_wait_s=60.0)
        )

        async def run():
            task = asyncio.ensure_future(
                streaming.submit(RangingRequest("d", FREQS, one_link(rng, FREQS)))
            )
            await asyncio.sleep(0)  # let the submit park itself
            assert streaming.n_pending == 1
            await streaming.drain()
            return await asyncio.wait_for(task, timeout=60.0)

        assert asyncio.run(run()).ok

    def test_stats_accumulate_across_flushes(self, rng, make_streaming):
        streaming = make_streaming(FAST_CONFIG)

        async def one(i):
            return await streaming.submit(
                RangingRequest(f"x{i}", FREQS, one_link(rng, FREQS))
            )

        asyncio.run(one(0))
        asyncio.run(one(1))
        stats = streaming.stats
        assert stats.n_requests == 2
        assert stats.n_flushes == 2
        assert stats.mean_links_per_flush == 1.0

    def test_threaded_callers_coalesce_through_client(self, rng):
        """Plain threads funneling into one StreamClient coalesce like
        coroutines: several concurrent calls, few engine flushes."""
        channels = {
            i: one_link(rng, FREQS, 20e-9 + 4e-9 * i) for i in range(6)
        }
        want = RangingService(FAST_CONFIG).submit(
            [RangingRequest(f"t{i}", FREQS, channels[i]) for i in range(6)]
        )
        with StreamClient(FAST_CONFIG, StreamConfig(max_wait_s=0.05)) as client:
            barrier = threading.Barrier(6)
            responses: dict[int, object] = {}
            errors: list[BaseException] = []

            def worker(i):
                try:
                    barrier.wait(timeout=30.0)
                    responses[i] = client.range_products(
                        RangingRequest(f"t{i}", FREQS, channels[i]),
                        timeout_s=120.0,
                    )
                except BaseException as exc:  # noqa: BLE001 — collected for assert
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert errors == []
            for i in range(6):
                assert abs(
                    responses[i].estimate.tof_s - want[i].estimate.tof_s
                ) <= 1e-12
            # All six threads arrived inside one coalescing window; the
            # batcher must have served them in far fewer flushes than
            # requests (usually exactly one).
            assert client.stats.n_flushes < 6
            assert client.stats.n_requests == 6

    def test_service_survives_a_torn_down_loop(self, rng, make_streaming):
        """A loop dying mid-window (asyncio.run + wait_for timeout) must
        not wedge the service: the next loop schedules its own flush."""
        streaming = make_streaming(
            FAST_CONFIG, StreamConfig(max_wait_s=60.0)
        )
        request = RangingRequest("orphan", FREQS, one_link(rng, FREQS))

        async def abandoned():
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(streaming.submit(request), timeout=0.01)

        asyncio.run(abandoned())
        # The 60 s timer died with its loop; a fresh submit must still
        # resolve promptly (fresh timer + drain, not a stale handle).
        fresh = RangingRequest("fresh", FREQS, one_link(rng, FREQS, 40e-9))

        async def retry():
            task = asyncio.ensure_future(streaming.submit(fresh))
            await asyncio.sleep(0)
            await streaming.drain()
            return await asyncio.wait_for(task, timeout=60.0)

        assert asyncio.run(retry()).ok
        # The orphaned request was dropped, not solved for nobody: only
        # the live caller's request reached the engine and the stats.
        assert streaming.stats.n_requests == 1

    def test_unexpected_failure_rejects_instead_of_hanging(self, rng, make_streaming):
        """Any non-isolatable backend error must reach the callers as an
        exception — never a silent hang (sweep retry path included)."""

        class ExplodingService(RangingService):
            def submit_grouped(self, requests):
                raise RuntimeError("backend down")

        streaming = make_streaming(
            service=ExplodingService(FAST_CONFIG)
        )

        async def run():
            with pytest.raises(RuntimeError, match="backend down"):
                await asyncio.wait_for(
                    streaming.submit(
                        RangingRequest("x", FREQS, one_link(rng, FREQS))
                    ),
                    timeout=30.0,
                )

        asyncio.run(run())

    def test_client_close_drains_parked_requests(self, rng):
        """close() racing a parked request resolves it instead of
        stranding the calling thread behind a dead timer."""
        client = StreamClient(FAST_CONFIG, StreamConfig(max_wait_s=120.0))
        result: dict[str, object] = {}

        def caller():
            result["response"] = client.range_products(
                RangingRequest("parked", FREQS, one_link(rng, FREQS)),
                timeout_s=60.0,
            )

        thread = threading.Thread(target=caller)
        thread.start()
        # Wait for the request to actually park behind the 120 s window.
        for _ in range(500):
            if client.service.n_pending:
                break
            time.sleep(0.01)
        assert client.service.n_pending == 1
        client.close()
        thread.join(timeout=60.0)
        assert not thread.is_alive()
        assert result["response"].ok

    def test_client_close_is_idempotent(self):
        client = StreamClient(FAST_CONFIG)
        client.close()
        client.close()
        with pytest.raises(RuntimeError):
            client.range_products(
                RangingRequest("late", FREQS, np.ones(len(FREQS)))
            )

    def test_stream_config_validation(self):
        with pytest.raises(ValueError):
            StreamConfig(max_wait_s=-1.0)
        with pytest.raises(ValueError):
            StreamConfig(max_batch_links=0)
        with pytest.raises(ValueError):
            StreamConfig(flush_workers=0)
        with pytest.raises(ValueError):
            SweepRequest("empty", ())


class TestFlushOffload:
    def test_midflush_submits_coalesce_into_next_batch(self, rng, make_streaming):
        """The ROADMAP offload item, pinned: while a (deliberately
        blocked) engine solve runs on the flush worker, the event loop
        stays live and submissions arriving mid-flush park and coalesce
        into the *next* batch — with the inline flush they would have
        had to wait for the loop to unblock first (this test would
        deadlock)."""
        release = threading.Event()
        entered = threading.Event()

        class GatedService(RangingService):
            def __init__(self, config):
                super().__init__(config)
                self._gate_first = True

            def submit_grouped(self, requests):
                if self._gate_first:
                    self._gate_first = False
                    entered.set()
                    assert release.wait(timeout=60.0), "flush never released"
                return super().submit_grouped(requests)

        streaming = make_streaming(
            service=GatedService(FAST_CONFIG),
            stream=StreamConfig(max_wait_s=0.0),
        )

        async def run():
            first = asyncio.ensure_future(
                streaming.submit(RangingRequest("a", FREQS, one_link(rng, FREQS)))
            )
            # Spin on the live loop until the worker is inside the
            # engine call — every iteration here proves the loop is not
            # blocked by the in-flight solve.
            for _ in range(10_000):
                if entered.is_set():
                    break
                await asyncio.sleep(0.001)
            assert entered.is_set()
            late = [
                asyncio.ensure_future(
                    streaming.submit(
                        RangingRequest(f"mid-{i}", FREQS, one_link(rng, FREQS, 40e-9))
                    )
                )
                for i in range(2)
            ]
            # Let both park and their follow-up flush fire; it queues
            # behind the blocked solve on the size-1 worker.
            await asyncio.sleep(0.01)
            release.set()
            responses = await asyncio.wait_for(
                asyncio.gather(first, *late), timeout=60.0
            )
            await streaming.drain()
            return responses

        responses = asyncio.run(run())
        assert all(r.ok for r in responses)
        # One flush for the gated solo request, one for both mid-flush
        # arrivals together — not three.
        assert streaming.stats.n_flushes == 2
        assert streaming.stats.largest_flush == 2
        assert streaming.stats.n_requests == 3
        streaming.close()

    def test_inline_flush_flag_preserves_old_behavior(self, rng, make_streaming):
        """offload_flush=False solves on the loop thread: no worker is
        ever created, and results still match the one-shot path."""
        request = RangingRequest("inline", FREQS, one_link(rng, FREQS))
        want = RangingService(FAST_CONFIG).submit([request])[0]
        streaming = make_streaming(
            FAST_CONFIG, StreamConfig(offload_flush=False)
        )

        async def run():
            return await streaming.submit(request)

        got = asyncio.run(run())
        assert abs(got.estimate.tof_s - want.estimate.tof_s) <= 1e-12
        assert not streaming._executors  # inline path never spawned workers

    def test_drain_awaits_inflight_offloaded_flushes(self, rng, make_streaming):
        """After drain() returns, every caller's future is resolved —
        the guarantee the inline flush gave for free."""
        streaming = make_streaming(
            FAST_CONFIG, StreamConfig(max_wait_s=60.0)
        )

        async def run():
            task = asyncio.ensure_future(
                streaming.submit(RangingRequest("d", FREQS, one_link(rng, FREQS)))
            )
            await asyncio.sleep(0)
            await streaming.drain()
            assert task.done(), "drain returned with the flush still in flight"
            return task.result()

        assert asyncio.run(run()).ok
        streaming.close()

    def test_close_is_idempotent_and_service_stays_usable(self, rng, make_streaming):
        """close() releases the pool's worker threads; a later
        submission just spins up fresh ones instead of wedging."""
        streaming = make_streaming(FAST_CONFIG)

        async def one(link_id):
            return await streaming.submit(
                RangingRequest(link_id, FREQS, one_link(rng, FREQS))
            )

        assert asyncio.run(one("w")).ok
        assert streaming._executors  # the pool spun up
        streaming.close()
        streaming.close()
        assert not streaming._executors
        assert asyncio.run(one("late")).ok
        streaming.close()


class TestFlushPool:
    """The band-plan-keyed flush pool (the PR-5 tentpole)."""

    def test_pooled_matches_inline_everywhere(
        self, rng, small_plan, fast_config, make_streaming
    ):
        """Pooled flushes == inline flushes at ≤ 1e-12 s, for a flush
        mixing two product band plans and sweep requests."""
        from repro.rf.environment import free_space
        from repro.rf.geometry import Point
        from repro.wifi.hardware import INTEL_5300
        from repro.wifi.radio import SimulatedLink

        small = US_BAND_PLAN.subset_5g().decimate(2).center_frequencies_hz
        products = [
            RangingRequest("p0", FREQS, one_link(rng, FREQS, 20e-9)),
            RangingRequest("p1", small, one_link(rng, small, 35e-9)),
            RangingRequest("p2", FREQS, one_link(rng, FREQS, 50e-9)),
            RangingRequest("p3", small, one_link(rng, small, 15e-9)),
        ]
        link = SimulatedLink(
            environment=free_space(),
            tx_position=Point(0.0, 0.0),
            rx_position=Point(4.0, 0.0),
            tx_state=INTEL_5300.sample_device_state(rng),
            rx_state=INTEL_5300.sample_device_state(rng),
            band_plan=small_plan,
            rng=rng,
        )
        sweeps = [link.sweep(2) for _ in range(2)]

        def run_through(streaming):
            async def run():
                return await asyncio.gather(
                    *(streaming.submit(r) for r in products),
                    *(
                        streaming.submit(SweepRequest(f"sw{i}", (sweep,)))
                        for i, sweep in enumerate(sweeps)
                    ),
                )

            return asyncio.run(run())

        pooled_service = make_streaming(fast_config)
        inline_service = make_streaming(
            fast_config, StreamConfig(offload_flush=False)
        )
        pooled = run_through(pooled_service)
        inline = run_through(inline_service)
        assert [r.link_id for r in pooled] == [r.link_id for r in inline]
        for a, b in zip(pooled, inline):
            assert a.ok and b.ok
            assert abs(a.estimate.tof_s - b.estimate.tof_s) <= 1e-12
        # Both paths partition identically: 2 product plans + 1 sweep
        # signature = 3 groups in 1 flush.
        for streaming in (pooled_service, inline_service):
            assert streaming.stats.n_flushes == 1
            assert streaming.stats.n_groups == 3
            assert streaming.stats.n_requests == 6

    def test_heterogeneous_plan_flushes_overlap(self, rng, make_streaming):
        """The tentpole's point, pinned with an instrumented engine:
        two plan groups of one flush solve *concurrently*.  Each
        group's solve refuses to finish until it has seen the other
        group start — impossible on the old single worker (this test
        would then fail its 30 s handshake, not hang, thanks to the
        wait timeouts)."""
        small = US_BAND_PLAN.subset_5g().decimate(2).center_frequencies_hz
        started = {"wide": threading.Event(), "narrow": threading.Event()}
        windows: dict[str, tuple[float, float]] = {}

        class CrossGatedService(RangingService):
            def submit_grouped(self, requests):
                mine = "wide" if len(requests[0].frequencies_hz) == len(FREQS) else "narrow"
                other = "narrow" if mine == "wide" else "wide"
                t0 = time.perf_counter()
                started[mine].set()
                assert started[other].wait(timeout=30.0), (
                    f"{mine} plan solved alone: groups serialized, no overlap"
                )
                out = super().submit_grouped(requests)
                windows[mine] = (t0, time.perf_counter())
                return out

        streaming = make_streaming(
            service=CrossGatedService(FAST_CONFIG),
            stream=StreamConfig(max_wait_s=0.0),
        )

        async def run():
            return await asyncio.wait_for(
                asyncio.gather(
                    streaming.submit(
                        RangingRequest("wide", FREQS, one_link(rng, FREQS))
                    ),
                    streaming.submit(
                        RangingRequest("narrow", small, one_link(rng, small))
                    ),
                ),
                timeout=60.0,
            )

        responses = asyncio.run(run())
        assert all(r.ok for r in responses)
        assert streaming.stats.n_flushes == 1
        assert streaming.stats.n_groups == 2
        # Both solves' wall-clock windows genuinely overlapped.
        (a0, a1), (b0, b1) = windows["wide"], windows["narrow"]
        assert a0 < b1 and b0 < a1

    def test_one_plan_keeps_one_ordered_worker(self, rng, make_streaming):
        """A plan is pinned to a single size-1 worker: successive
        flushes of the same plan solve on the same thread (ordering),
        while a different plan gets a different worker."""
        threads_seen: dict[str, list[str]] = {"wide": [], "narrow": []}
        small = US_BAND_PLAN.subset_5g().decimate(2).center_frequencies_hz

        class RecordingService(RangingService):
            def submit_grouped(self, requests):
                kind = "wide" if len(requests[0].frequencies_hz) == len(FREQS) else "narrow"
                threads_seen[kind].append(threading.current_thread().name)
                return super().submit_grouped(requests)

        streaming = make_streaming(service=RecordingService(FAST_CONFIG))

        async def one(request):
            return await streaming.submit(request)

        for i in range(2):  # two separate flushes per plan
            assert asyncio.run(
                one(RangingRequest(f"w{i}", FREQS, one_link(rng, FREQS)))
            ).ok
            assert asyncio.run(
                one(RangingRequest(f"n{i}", small, one_link(rng, small)))
            ).ok
        assert len(set(threads_seen["wide"])) == 1
        assert len(set(threads_seen["narrow"])) == 1
        assert set(threads_seen["wide"]).isdisjoint(threads_seen["narrow"])

    def test_flush_workers_one_restores_shared_worker(self, rng, make_streaming):
        """flush_workers=1 pins every plan to the same single thread —
        the pre-pool behavior, still exact."""
        small = US_BAND_PLAN.subset_5g().decimate(2).center_frequencies_hz
        threads_seen: list[str] = []

        class RecordingService(RangingService):
            def submit_grouped(self, requests):
                threads_seen.append(threading.current_thread().name)
                return super().submit_grouped(requests)

        streaming = make_streaming(
            service=RecordingService(FAST_CONFIG),
            stream=StreamConfig(flush_workers=1),
        )

        async def run():
            return await asyncio.gather(
                streaming.submit(RangingRequest("a", FREQS, one_link(rng, FREQS))),
                streaming.submit(RangingRequest("b", small, one_link(rng, small))),
            )

        responses = asyncio.run(run())
        assert all(r.ok for r in responses)
        assert len(threads_seen) == 2 and len(set(threads_seen)) == 1

    def test_mixed_flush_ordering_and_per_type_failure_counts(
        self, rng, small_plan, fast_config, make_streaming
    ):
        """A flush mixing products and sweeps, each with one poisoned
        member: responses come back in submission order and the stats
        split the failures by request type."""
        from repro.rf.environment import free_space
        from repro.rf.geometry import Point
        from repro.wifi.hardware import INTEL_5300
        from repro.wifi.radio import SimulatedLink

        link = SimulatedLink(
            environment=free_space(),
            tx_position=Point(0.0, 0.0),
            rx_position=Point(3.0, 0.0),
            tx_state=INTEL_5300.sample_device_state(rng),
            rx_state=INTEL_5300.sample_device_state(rng),
            band_plan=small_plan,
            rng=rng,
        )
        good_sweep = link.sweep(2)
        bad_sweep = link.sweep(2)
        for m in bad_sweep:
            m.forward.csi[:] = np.nan
            m.reverse.csi[:] = np.nan
        poisoned = np.full(len(FREQS), np.nan + 1j * np.nan)
        streaming = make_streaming(fast_config)

        async def run():
            return await asyncio.wait_for(
                asyncio.gather(
                    streaming.submit(
                        RangingRequest("p-ok", FREQS, one_link(rng, FREQS))
                    ),
                    streaming.submit(SweepRequest("s-ok", (good_sweep,))),
                    streaming.submit(RangingRequest("p-bad", FREQS, poisoned)),
                    streaming.submit(SweepRequest("s-bad", (bad_sweep,))),
                ),
                timeout=60.0,
            )

        responses = asyncio.run(run())
        assert [r.link_id for r in responses] == ["p-ok", "s-ok", "p-bad", "s-bad"]
        assert responses[0].ok and responses[1].ok
        assert not responses[2].ok and responses[2].error
        assert not responses[3].ok and responses[3].error
        stats = streaming.stats
        assert stats.n_flushes == 1
        assert stats.n_failed_products == 1
        assert stats.n_failed_sweeps == 1
        assert stats.n_failed == 2

    def test_pin_table_churn_keeps_hot_plans_and_spreads_new_ones(
        self, make_streaming
    ):
        """Plan churn past the pin-table bound must neither unpin a
        hot plan (its worker ordering guarantee would break) nor
        collapse new plans onto one slot (the saturated-table
        round-robin bug)."""
        streaming = make_streaming(FAST_CONFIG)
        streaming._MAX_PINNED_PLANS = 3
        hot = ("products", (b"hot-plan", 2))
        hot_slot = streaming._pool_slot(hot)
        churn_slots = set()
        for i in range(12):
            churn_slots.add(
                streaming._pool_slot(("products", (f"cold-{i}".encode(), 2)))
            )
            # The hot plan is re-used every round: LRU keeps its pin.
            assert streaming._pool_slot(hot) == hot_slot
            assert len(streaming._slot_by_key) <= 3
        # Post-saturation plans still spread across the pool.
        assert len(churn_slots) == streaming.stream_config.flush_workers

    def test_sweep_counts_do_not_split_the_group(
        self, rng, small_plan, fast_config, make_streaming
    ):
        """Sweep requests with *different sweep counts* on one band
        plan still coalesce into a single group (one
        estimate_sweeps_batch call) — the pool keys sweeps by
        frequency set, not by request structure, so staggered links
        keep PR 3's cross-link sweep amortization."""
        from repro.rf.environment import free_space
        from repro.rf.geometry import Point
        from repro.wifi.hardware import INTEL_5300
        from repro.wifi.radio import SimulatedLink

        link = SimulatedLink(
            environment=free_space(),
            tx_position=Point(0.0, 0.0),
            rx_position=Point(3.0, 0.0),
            tx_state=INTEL_5300.sample_device_state(rng),
            rx_state=INTEL_5300.sample_device_state(rng),
            band_plan=small_plan,
            rng=rng,
        )
        streaming = make_streaming(fast_config)

        async def run():
            return await asyncio.gather(
                streaming.submit(SweepRequest("one", (link.sweep(2),))),
                streaming.submit(SweepRequest("two", (link.sweep(2), link.sweep(2)))),
            )

        responses = asyncio.run(run())
        assert all(r.ok for r in responses)
        assert streaming.stats.n_flushes == 1
        assert streaming.stats.n_groups == 1

    def test_drain_while_pooled_flush_mid_solve(self, rng, make_streaming):
        """drain() called while a pooled group solve is in flight (and
        another request parked behind it) returns only once every
        caller's future is resolved."""
        release = threading.Event()
        entered = threading.Event()

        class GatedService(RangingService):
            def __init__(self, config):
                super().__init__(config)
                self._gate_first = True

            def submit_grouped(self, requests):
                if self._gate_first:
                    self._gate_first = False
                    entered.set()
                    assert release.wait(timeout=60.0), "solve never released"
                return super().submit_grouped(requests)

        streaming = make_streaming(
            service=GatedService(FAST_CONFIG),
            stream=StreamConfig(max_wait_s=0.0),
        )

        async def run():
            first = asyncio.ensure_future(
                streaming.submit(RangingRequest("a", FREQS, one_link(rng, FREQS)))
            )
            for _ in range(10_000):
                if entered.is_set():
                    break
                await asyncio.sleep(0.001)
            assert entered.is_set()
            # Parks while the first solve is blocked mid-flight.
            second = asyncio.ensure_future(
                streaming.submit(
                    RangingRequest("b", FREQS, one_link(rng, FREQS, 40e-9))
                )
            )
            await asyncio.sleep(0.01)
            loop = asyncio.get_running_loop()
            loop.call_later(0.05, release.set)
            await asyncio.wait_for(streaming.drain(), timeout=60.0)
            assert first.done() and second.done(), (
                "drain returned with a caller still parked"
            )
            return first.result(), second.result()

        a, b = asyncio.run(run())
        assert a.ok and b.ok


class TestResolveTruncation:
    """Regression: a backend returning fewer responses than requests
    used to leave the tail callers awaiting forever (the ``zip`` in
    ``_resolve`` silently dropped them)."""

    def test_truncating_backend_fails_tail_instead_of_hanging(
        self, rng, make_streaming
    ):
        class TruncatingService(RangingService):
            def submit_grouped(self, requests):
                return super().submit_grouped(requests)[:-1]

        streaming = make_streaming(service=TruncatingService(FAST_CONFIG))
        requests = [
            RangingRequest(f"t{i}", FREQS, one_link(rng, FREQS, 20e-9 + 5e-9 * i))
            for i in range(3)
        ]

        async def run():
            # Pre-fix, this wait_for times out: the tail future never
            # resolves.  Post-fix it returns an error response.
            return await asyncio.wait_for(
                asyncio.gather(*(streaming.submit(r) for r in requests)),
                timeout=30.0,
            )

        responses = asyncio.run(run())
        assert responses[0].ok and responses[1].ok
        assert not responses[2].ok
        assert "this request got none" in responses[2].error
        assert streaming.stats.n_failed == 1
        assert streaming.stats.n_failed_products == 1

    def test_overlong_backend_response_list_is_tolerated(
        self, rng, make_streaming
    ):
        """The mirror bug: extra responses are ignored, not delivered
        to the wrong caller."""

        class PaddingService(RangingService):
            def submit_grouped(self, requests):
                responses = super().submit_grouped(requests)
                return responses + [responses[-1]]

        streaming = make_streaming(service=PaddingService(FAST_CONFIG))
        want = RangingService(FAST_CONFIG).submit(
            [RangingRequest("solo", FREQS, one_link(rng, FREQS))]
        )[0]

        async def run():
            return await asyncio.wait_for(
                streaming.submit(
                    RangingRequest("solo", FREQS, one_link(rng, FREQS))
                ),
                timeout=30.0,
            )

        got = asyncio.run(run())
        assert got.ok
        assert abs(got.estimate.tof_s - want.estimate.tof_s) <= 1e-12
        assert streaming.stats.n_failed == 0


class TestTrackerBankEviction:
    """Idle eviction bounds the per-link tracker bank (PR-5 leak fix)."""

    def test_max_tracks_evicts_least_recently_updated(self):
        bank = TrackerBank(max_tracks=2, idle_ttl_s=None)
        bank.update("a", 10e-9, 0.0)
        bank.update("b", 20e-9, 1.0)
        bank.update("a", 10e-9, 2.0)  # refresh a: b is now the LRU
        bank.update("c", 30e-9, 3.0)
        assert len(bank) == 2
        assert "b" not in bank
        assert "a" in bank and "c" in bank
        assert bank.n_evicted == 1

    def test_idle_ttl_evicts_stale_links(self):
        bank = TrackerBank(idle_ttl_s=10.0)
        bank.update("old", 10e-9, 0.0)
        bank.update("live", 20e-9, 5.0)
        bank.update("live", 20e-9, 20.0)  # old is now 20 s stale
        assert "old" not in bank
        assert "live" in bank
        assert bank.n_evicted == 1

    def test_evicted_link_restarts_fresh(self):
        bank = TrackerBank(max_tracks=1, idle_ttl_s=None)
        bank.update("a", 10e-9, 0.0)
        bank.update("a", 10e-9, 1.0)
        bank.update("b", 20e-9, 2.0)  # evicts a
        state = bank.update("a", 50e-9, 3.0)  # returns as a brand-new track
        assert state.n_accepted == 1

    def test_manual_evict_idle_sweep(self):
        bank = TrackerBank(idle_ttl_s=10.0)
        bank.update("a", 10e-9, 0.0)
        bank.update("b", 20e-9, 1.0)
        assert bank.evict_idle(now_s=100.0) == 2
        assert len(bank) == 0

    def test_defaults_never_evict_in_suite_scale_use(self):
        bank = TrackerBank()
        for i in range(64):
            bank.update(f"link-{i}", 10e-9, float(i))
        assert len(bank) == 64
        assert bank.n_evicted == 0

    def test_precreated_tracker_survives_first_update(self):
        """A tracker created via tracker() before the bank's first
        update has no last-update time yet — the TTL must not sweep it
        away on a peer's first (large-timestamp) update."""
        bank = TrackerBank(idle_ttl_s=10.0)
        pre = bank.tracker("pre")
        bank.update("other", 10e-9, 1000.0)
        assert "pre" in bank
        assert bank.tracker("pre") is pre
        assert bank.n_evicted == 0
        # Once it updates, it ages like everyone else.
        bank.update("pre", 10e-9, 1000.0)
        bank.update("other", 10e-9, 2000.0)
        assert "pre" not in bank

    def test_validation(self):
        with pytest.raises(ValueError):
            TrackerBank(max_tracks=0)
        with pytest.raises(ValueError):
            TrackerBank(idle_ttl_s=0.0)


class TestLinkTracker:
    def test_tracks_constant_velocity_and_rejects_ghosts(self):
        rng = np.random.default_rng(7)
        tracker = LinkTracker("cv", TrackerConfig(measurement_sigma_m=0.03))
        dt = 1.0 / 12.0
        true = lambda t: 4.0 - 0.4 * t  # noqa: E731 — tiny local truth model
        t = 0.0
        for _ in range(60):
            d = true(t) + rng.normal(0.0, 0.03)
            if rng.random() < 0.1:
                d += rng.uniform(1.0, 4.0)  # multipath ghost, meters late
            state = tracker.update_range(d, t)
            t += dt
        assert abs(state.range_m - true(t - dt)) < 0.08
        assert abs(state.velocity_mps - (-0.4)) < 0.15
        assert tracker.n_rejected >= 2
        assert 0.0 < state.confidence <= 1.0

    def test_survives_association_jump(self):
        """A genuine range jump re-centers within about half a window
        instead of locking the tracker out (rejected innovations stay
        in the MAD history)."""
        tracker = LinkTracker("jump", TrackerConfig())
        dt = 1.0 / 12.0
        for k in range(24):
            tracker.update_range(2.0, k * dt)
        for k in range(24, 44):
            state = tracker.update_range(6.0, k * dt)
        assert abs(state.range_m - 6.0) < 0.2

    def test_rejects_non_string_link_id(self):
        """A config passed positionally must not become the link id."""
        with pytest.raises(ValueError, match="TrackerConfig"):
            LinkTracker(TrackerConfig(max_range_m=150.0))
        with pytest.raises(ValueError, match="''"):
            LinkTracker("")

    def test_validation_and_reset(self):
        tracker = LinkTracker()
        with pytest.raises(ValueError):
            tracker.range_m  # noqa: B018 — property raises before init
        with pytest.raises(ValueError):
            tracker.update(np.nan, 0.0)
        tracker.update(10e-9, 0.0)
        with pytest.raises(ValueError):
            tracker.update(10e-9, -1.0)  # time must not run backwards
        tracker.reset()
        assert not tracker.initialized
        with pytest.raises(ValueError):
            TrackerConfig(measurement_sigma_m=0.0)
        with pytest.raises(ValueError):
            TrackerConfig(gate_window=2)

    def test_predicted_range_extrapolates(self):
        tracker = LinkTracker("p", TrackerConfig(measurement_sigma_m=0.01))
        for k in range(30):
            tracker.update_range(1.0 + 0.5 * k * 0.1, k * 0.1)
        ahead = tracker.predicted_range_m(30 * 0.1 + 0.5)
        assert ahead > tracker.range_m  # receding link keeps receding

    def test_bank_creates_and_routes(self):
        bank = TrackerBank()
        s1 = bank.update("a", 10e-9, 0.0)
        s2 = bank.update("b", 20e-9, 0.0)
        assert len(bank) == 2 and "a" in bank
        assert s1.link_id == "a" and s2.link_id == "b"
        assert bank.states()["b"].tof_s == pytest.approx(20e-9)
        bank.drop("a")
        assert "a" not in bank

    def test_bank_states_report_rejections_honestly(self):
        """states() returns the state the tracker actually produced —
        a link whose last sweep was gated out says accepted=False."""
        bank = TrackerBank(TrackerConfig(min_gate_m=0.05))
        dt = 1.0 / 12.0
        for k in range(12):
            bank.update("u", 10.0 / SPEED_OF_LIGHT, k * dt)
        ghost = bank.update("u", 14.0 / SPEED_OF_LIGHT, 12 * dt)
        assert not ghost.accepted
        state = bank.states()["u"]
        assert state.accepted is False
        assert state.n_rejected == 1


class TestRequestApi:
    def test_requests_share_the_frozen_base(self, ideal_link):
        prod = RangingRequest("a", FREQS, np.ones(len(FREQS), complex))
        sweep = SweepRequest("b", (ideal_link.sweep(1),))
        assert isinstance(prod, LinkRequest)
        assert isinstance(sweep, LinkRequest)
        with pytest.raises(ValueError):
            SweepRequest("c", ())

    def test_reexports(self):
        import repro.stream as stream

        assert stream.LinkRequest is LinkRequest
        assert stream.RangingRequest is RangingRequest

    def test_submit_rejects_foreign_types(self, make_streaming):
        service = make_streaming(
            FAST_CONFIG, StreamConfig(max_wait_s=600.0, max_batch_links=1)
        )

        async def bad():
            await service.submit("not-a-request")

        with pytest.raises(TypeError):
            asyncio.run(bad())


class TestTrackerClamp:
    """A diverged track must never emit an unphysical prediction."""

    def test_diverged_track_prediction_is_clamped(self):
        tracker = LinkTracker(config=TrackerConfig(max_range_m=150.0))
        # Feed a runaway outward trajectory, then coast far into the
        # future: the extrapolated raw range blows past any deployable
        # distance.
        for i in range(12):
            tracker.update((5.0 + 12.0 * i) / SPEED_OF_LIGHT, 0.25 * i)
        assert 0.0 <= tracker.predicted_range_m(1000.0) <= 150.0

    def test_inward_divergence_clamps_at_zero(self):
        tracker = LinkTracker(config=TrackerConfig(max_range_m=150.0))
        for i in range(12):
            tracker.update(max(60.0 - 12.0 * i, 1.0) / SPEED_OF_LIGHT, 0.25 * i)
        assert tracker.predicted_range_m(1000.0) >= 0.0

    def test_bank_prediction_paths_are_clamped(self):
        bank = TrackerBank(TrackerConfig(max_range_m=80.0))
        for i in range(12):
            bank.update("runaway", (5.0 + 12.0 * i) / SPEED_OF_LIGHT, 0.25 * i)
        assert 0.0 <= bank.tracker("runaway").predicted_range_m(1000.0) <= 80.0

    def test_config_rejects_nonpositive_ceiling(self):
        with pytest.raises(ValueError):
            TrackerConfig(max_range_m=0.0)


class TestStreamSession:
    def test_mac_scheduled_replay_tracks_all_links(self, rng, make_streaming):
        freqs = US_BAND_PLAN.subset_5g().decimate(2).center_frequencies_hz
        distances = {"u1": 5.0, "u2": 8.0}

        def make_request(link_id, t_s):
            tau2 = 2.0 * distances[link_id] / SPEED_OF_LIGHT
            return RangingRequest(link_id, freqs, one_link(rng, freqs, tau2 / 2))

        arrivals = schedule_sweep_arrivals(
            list(distances), 0.5, make_request, sweep_duration_s=1.0 / 12.0
        )
        # Both links sweep at 12 Hz for 0.5 s: six arrivals each.
        assert len(arrivals) == 12
        service = make_streaming(FAST_CONFIG, StreamConfig(max_wait_s=1e-3))
        session = StreamSession(service, TrackerBank(), coalesce_window_s=5e-3)
        points = session.run(arrivals)
        assert len(points) == len(arrivals)
        assert all(p.ok and p.state is not None for p in points)
        states = session.trackers.states()
        for link_id, want in distances.items():
            assert states[link_id].range_m == pytest.approx(want, abs=0.3)
        # Same-tick arrivals coalesced: fewer flushes than requests.
        assert service.stats.n_flushes <= len(arrivals) // 2

    def test_poisoned_link_does_not_stall_session(self, rng, make_streaming):
        freqs = US_BAND_PLAN.subset_5g().decimate(2).center_frequencies_hz
        poisoned = np.full(len(freqs), np.nan + 1j * np.nan)
        arrivals = [
            SweepArrival(0.0, RangingRequest("ok", freqs, one_link(rng, freqs))),
            SweepArrival(0.0, RangingRequest("bad", freqs, poisoned)),
            SweepArrival(
                1.0 / 12.0, RangingRequest("ok", freqs, one_link(rng, freqs))
            ),
        ]
        service = make_streaming(FAST_CONFIG)
        session = StreamSession(service, TrackerBank())
        points = session.run(arrivals)
        assert [p.ok for p in points] == [True, False, True]
        assert points[1].state is None
        assert session.trackers.tracker("ok").n_accepted == 2

    def test_variable_sweep_durations_drift_links_apart(self):
        # Binary-exact durations: the arrival count is then exact too.
        durations = {"fast": 1.0 / 16.0, "slow": 1.0 / 4.0}
        arrivals = schedule_sweep_arrivals(
            list(durations),
            1.0,
            lambda link_id, t: RangingRequest(
                link_id, FREQS, np.ones(len(FREQS))
            ),
            sweep_duration_s=lambda link_id, now: durations[link_id],
        )
        n_fast = sum(1 for a in arrivals if a.link_id == "fast")
        n_slow = sum(1 for a in arrivals if a.link_id == "slow")
        assert n_fast == 16 and n_slow == 4

    def test_hopping_protocol_drives_the_schedule(self, rng):
        """The Fig. 9a sweep-time model plugs in as the cadence source:
        arrivals land ~84 ms apart and independent links drift."""
        from repro.mac import HoppingProtocol

        sampler = HoppingProtocol().sweep_duration_sampler(rng)
        arrivals = schedule_sweep_arrivals(
            ["a", "b"],
            0.5,
            lambda link_id, t: RangingRequest(
                link_id, FREQS, np.ones(len(FREQS))
            ),
            sweep_duration_s=sampler,
        )
        per_link = {
            link: sorted(a.time_s for a in arrivals if a.link_id == link)
            for link in ("a", "b")
        }
        for times in per_link.values():
            assert len(times) >= 4  # ~6 sweeps fit in 0.5 s at ~84 ms
            gaps = np.diff([0.0] + times)
            assert np.all(gaps > 0.05) and np.all(gaps < 0.3)
        # Independent loss/retry draws: the two links do not stay in
        # lockstep for the whole run.
        n = min(len(per_link["a"]), len(per_link["b"]))
        assert any(
            abs(x - y) > 1e-4
            for x, y in zip(per_link["a"][:n], per_link["b"][:n])
        )

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            schedule_sweep_arrivals(["a"], 0.0, lambda link, t: None)
        with pytest.raises(ValueError):
            schedule_sweep_arrivals(
                ["a"], 1.0, lambda link, t: None, start_offsets_s=[0.0, 0.0]
            )


class TestDroneThroughStream:
    def test_follow_loop_runs_through_streaming_subsystem(self, rng, small_plan):
        """Drone-follow end to end: ChronosRangeSensor streams every
        tick's sweep through a StreamClient micro-batcher."""
        from repro.core.pipeline import ChronosDevice, ChronosPair
        from repro.drone.follow import (
            ChronosRangeSensor,
            FollowConfig,
            FollowSimulation,
        )
        from repro.rf.environment import free_space
        from repro.rf.geometry import Point

        pair = ChronosPair(
            free_space(),
            receiver=ChronosDevice.create("drone", Point(1.4, 0.0), rng),
            transmitter=ChronosDevice.create("user", Point(0.0, 0.0), rng),
            band_plan=small_plan,
            estimator_config=FAST_CONFIG,
            rng=rng,
        )
        pair.calibrate()
        config = FollowConfig(duration_s=2.0, settle_time_s=0.5)
        with ChronosRangeSensor(pair=pair) as sensor:
            result = FollowSimulation(config, sensor=sensor).run(rng)
        assert len(result.times_s) == len(result.true_distances_m)
        # The loop held the stand-off using streamed ranging only.
        assert result.rmse_m < 0.5
        assert sensor.client is None  # exiting the context released the client
