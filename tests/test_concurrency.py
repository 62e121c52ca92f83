"""Thread-safety smoke tests for the process-wide caches.

A concurrent :class:`~repro.net.service.RangingService` deployment hits
:func:`repro.core.ndft.get_operator` from many threads at once.  The
LRU bookkeeping (``move_to_end`` / ``popitem`` on one ``OrderedDict``)
is not atomic, so without the cache lock these tests race: interleaved
evictions and clears raise ``KeyError``/``RuntimeError`` out of the
cache internals, or leave the dict oversized.  With the lock they must
pass silently.  The §5 front end's cached spline weights are shared by
the flush workers the same way.  The CI matrix runs this file as its
own named step so a regression is visible at a glance.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.cfo import band_products
from repro.core.interpolation import _spline_weights
from repro.core.ndft import (
    _OPERATOR_CACHE_MAXSIZE,
    clear_operator_cache,
    get_grid_operator,
    ndft_matrix,
    operator_cache_stats,
)
from repro.wifi.bands import US_BAND_PLAN
from repro.wifi.csi import BandCsi, CsiSweep, LinkCsi
from repro.wifi.ofdm import DATA_SUBCARRIERS_20MHZ, INTEL5300_SUBCARRIERS_20MHZ

FREQS = US_BAND_PLAN.subset_5g().center_frequencies_hz


def _run_threads(worker, n_threads=8):
    errors: list[BaseException] = []

    def wrapped(k):
        try:
            worker(k)
        except BaseException as exc:  # noqa: BLE001 — smoke test collects all
            errors.append(exc)

    threads = [
        threading.Thread(target=wrapped, args=(k,)) for k in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return errors


class TestOperatorCacheThreadSafety:
    def test_concurrent_get_clear_and_evict(self):
        """Hammer the cache from 8 threads with enough distinct keys to
        force evictions, plus interleaved clears."""
        clear_operator_cache()

        def worker(k):
            for i in range(60):
                # > maxsize distinct keys across the pool forces LRU
                # evictions to interleave with hits and clears.
                step_ns = 1.0 + ((i + 7 * k) % (_OPERATOR_CACHE_MAXSIZE + 8)) * 0.05
                op = get_grid_operator(FREQS, 100e-9, step_ns * 1e-9)
                assert op.n_taus >= 2
                assert op.lipschitz > 0
                if i % 23 == 22:
                    clear_operator_cache()

        errors = _run_threads(worker)
        assert errors == []
        stats = operator_cache_stats()
        assert stats["size"] <= _OPERATOR_CACHE_MAXSIZE

    def test_concurrent_hits_share_one_operator(self):
        """All threads asking for the same plan must get the same object
        and its matrix must stay correct."""
        clear_operator_cache()
        got = []

        def worker(_):
            for _ in range(20):
                got.append(get_grid_operator(FREQS, 100e-9, 1e-9))

        errors = _run_threads(worker, n_threads=6)
        assert errors == []
        assert len({id(op) for op in got}) == 1
        op = got[0]
        np.testing.assert_array_equal(op.F, ndft_matrix(FREQS, op.taus_s))

    def test_concurrent_ranging_service_submissions(self, rng):
        """End-to-end: parallel submits over distinct band plans survive
        the shared operator cache."""
        from repro.core.ndft import steering_vector
        from repro.core.sparse import SparseSolverConfig
        from repro.core.tof import TofEstimatorConfig
        from repro.net.service import RangingRequest, RangingService

        clear_operator_cache()
        config = TofEstimatorConfig(
            quirk_2g4=False,
            compute_profile=False,
            sparse=SparseSolverConfig(max_iterations=200),
        )
        plans = [FREQS, FREQS[::2], FREQS[::3]]
        # Pre-generate channels on the main thread: the RNG is not
        # thread-safe, and the race under test is the operator cache.
        channels = {}
        for k in range(6):
            freqs = plans[k % len(plans)]
            channels[k] = steering_vector(freqs, 2 * 30e-9) + 0.02 * (
                rng.normal(size=len(freqs)) + 1j * rng.normal(size=len(freqs))
            )
        responses = {}

        def worker(k):
            freqs = plans[k % len(plans)]
            service = RangingService(config)
            out = service.submit(
                [RangingRequest(f"w{k}-{i}", freqs, channels[k]) for i in range(4)]
            )
            responses[k] = out

        errors = _run_threads(worker, n_threads=6)
        assert errors == []
        for out in responses.values():
            assert all(r.ok for r in out)
            for r in out:
                assert r.estimate.tof_s == pytest.approx(30e-9, abs=0.5e-9)


class TestOperatorLazyMemoization:
    """The per-operator lock behind NdftOperator's lazy properties.

    Cached operators are shared across service worker threads; before
    the lock, a first-touch race on ``lipschitz`` ran one full SVD per
    racing thread and the last writer won (wasted work, and a reader
    could observe a torn publish on ``_adjoint``).
    """

    def test_lipschitz_computed_once_across_threads(self, monkeypatch):
        clear_operator_cache()
        op = get_grid_operator(FREQS, 100e-9, 1e-9)
        calls: list[int] = []
        real_norm = np.linalg.norm
        barrier = threading.Barrier(8)

        def counting_norm(*args, **kwargs):
            calls.append(threading.get_ident())
            return real_norm(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counting_norm)
        results: list[float] = []

        def worker(k):
            barrier.wait()
            results.append(op.lipschitz)

        errors = _run_threads(worker)
        assert errors == []
        assert len(calls) == 1  # double-checked locking: one SVD total
        assert len(set(results)) == 1

    def test_adjoint_single_shared_array_across_threads(self):
        clear_operator_cache()
        op = get_grid_operator(FREQS, 100e-9, 1e-9)
        barrier = threading.Barrier(8)
        results = []

        def worker(k):
            barrier.wait()
            results.append(op.adjoint)

        errors = _run_threads(worker)
        assert errors == []
        assert all(r is results[0] for r in results)
        assert not results[0].flags.writeable


class TestFlushPoolThreadSafety:
    """The lock guarding the streaming layer's one flush worker."""

    def _service(self):
        from repro.stream.service import StreamingRangingService

        return StreamingRangingService()

    @staticmethod
    def _record_executors(monkeypatch):
        """Every flush worker the service creates, in creation order."""
        import repro.stream.service as stream_service

        created = []

        class RecordingExecutor(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        monkeypatch.setattr(stream_service, "ThreadPoolExecutor", RecordingExecutor)
        return created

    def test_concurrent_pinning_yields_one_executor_per_plan(self, monkeypatch):
        """8 threads racing the first queueing on a fresh service must
        create a single worker (no orphaned executors), and every
        queued call runs on its one thread."""
        created = self._record_executors(monkeypatch)
        service = self._service()
        barrier = threading.Barrier(8)
        futures = []

        def worker(k):
            barrier.wait()
            futures.append(service._queue_on_worker(threading.current_thread))

        try:
            errors = _run_threads(worker)
            assert errors == []
            assert len(created) == 1
            assert service._executor is created[0]
            assert len({f.result(timeout=30.0) for f in futures}) == 1
        finally:
            service.close()

    def test_close_racing_pinning_leaks_no_worker(self, monkeypatch):
        """close() racing the threads that queue work must neither
        strand a worker where no close() can ever reach it nor take a
        call on a worker it already shut down."""
        created = self._record_executors(monkeypatch)
        service = self._service()
        futures = []
        barrier = threading.Barrier(8)

        def worker(k):
            barrier.wait()
            for _ in range(40):
                if k % 2 == 0:
                    futures.append(service._queue_on_worker(lambda: None))
                else:
                    service.close()

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            errors = _run_threads(worker)
        finally:
            sys.setswitchinterval(old_interval)
        assert errors == []
        service.close()
        # Every queued call ran, and every worker ever created is now
        # shut down: none leaked past the last close().
        assert len(futures) == 160
        assert all(f.result(timeout=30.0) is None for f in futures)
        assert created and all(ex._shutdown for ex in created)
        assert service._executor is None


class TestSplineWeightCacheThreadSafety:
    def test_concurrent_band_products_match_serial(self):
        """Flush workers run the §5 front end at once and share the
        cached spline weights: from a cold cache, on two subcarrier
        layouts, every thread gets the serial products bit for bit, and
        the shared weights stay read-only."""
        rng = np.random.default_rng(5)
        sweeps = []
        for layout in (INTEL5300_SUBCARRIERS_20MHZ, DATA_SUBCARRIERS_20MHZ):
            pairs = []
            for t, band in enumerate(US_BAND_PLAN.bands):
                forward, reverse = (
                    BandCsi(
                        band=band,
                        csi=rng.normal(size=len(layout))
                        + 1j * rng.normal(size=len(layout)),
                        subcarriers=layout,
                        timestamp_s=1e-3 * t,
                    )
                    for _ in range(2)
                )
                pairs.append(LinkCsi(forward=forward, reverse=reverse))
            sweeps.append(CsiSweep(pairs))
        serial = [band_products(sweep, power=4)[1] for sweep in sweeps]

        _spline_weights.cache_clear()
        results: list[list[tuple[int, np.ndarray]]] = [[] for _ in range(8)]
        errors: list[BaseException] = []
        barrier = threading.Barrier(8)

        def worker(k):
            try:
                barrier.wait()
                for i in range(20):
                    which = (i + k) % 2
                    results[k].append((which, band_products(sweeps[which], 4)[1]))
            except BaseException as exc:  # noqa: BLE001 — collected, asserted below
                errors.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        for got in results:
            assert len(got) == 20
            for which, products in got:
                np.testing.assert_array_equal(products, serial[which])
        for layout in (INTEL5300_SUBCARRIERS_20MHZ, DATA_SUBCARRIERS_20MHZ):
            with pytest.raises(ValueError):
                _spline_weights(layout)[0] = 1.0
