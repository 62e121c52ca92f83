"""The telemetry consumption layer: SLOs and the /health endpoint.

The contracts under test, by subsystem:

* **health** — latency/error SLOs judge rolling *windows* (bucket-count
  deltas), not process lifetime; the overload SLO breaches exactly when
  queue wait grows while solve time holds (the ROADMAP definition) and
  must NOT breach on balanced growth; an idle recent window reads as
  recovered.
* **server** — ``/metrics`` serves Prometheus text, ``/health`` maps
  ok/warn → 200 and breach → 503, ``/traces`` serves the ring; a
  saturated real streaming queue flips ``/health`` to 503 end to end
  and draining flips it back (the PR's acceptance criterion).
* **satellites** — engine/service ``report()`` hooks, tracer sink
  rotation, summarize's stdin + partial-line handling.
"""

import asyncio
import io
import json
import time
import urllib.error
import urllib.request

import pytest

from repro.core.batch import BatchTofEngine
from repro.core.ndft import steering_vector
from repro.core.sparse import SparseSolverConfig
from repro.core.tof import TofEstimatorConfig
from repro.net.service import RangingRequest, RangingService
from repro.obs import (
    REGISTRY,
    TRACER,
    HealthMonitor,
    MetricsRegistry,
    ObsServer,
)
from repro.obs import report as obs_report
from repro.obs.cli import main as obs_main
from repro.obs.health import (
    DEFAULT_SLOS,
    ErrorRateSlo,
    LatencySlo,
    OverloadSlo,
    worst_status,
)
from repro.stream import StreamConfig, StreamingRangingService
from repro.wifi.bands import US_BAND_PLAN

SMALL = US_BAND_PLAN.subset_5g().decimate(2).center_frequencies_hz

FAST_CONFIG = TofEstimatorConfig(
    quirk_2g4=False,
    compute_profile=False,
    sparse=SparseSolverConfig(max_iterations=300),
)

pytestmark = pytest.mark.asyncio


@pytest.fixture(autouse=True)
def clean_obs():
    """Isolate every test from the process-wide registry and tracer."""
    REGISTRY.reset()
    TRACER.configure(enabled=False, ring_size=4096)
    TRACER.clear()
    yield
    TRACER.configure(enabled=False, ring_size=4096)
    TRACER.clear()
    REGISTRY.reset()


def one_link(rng, freqs, tau=30e-9):
    h = steering_vector(freqs, 2 * tau) + 0.4 * steering_vector(
        freqs, 2 * tau + 25e-9
    )
    return h + 0.01 * (
        rng.normal(size=len(freqs)) + 1j * rng.normal(size=len(freqs))
    )


def http_get(url: str) -> tuple[int, str]:
    """GET returning (status, body) — 4xx/5xx as values, not raises."""
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, response.read().decode()
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode()


# ----------------------------------------------------------------------
# Overload SLO: the synthetic registry replays (satellite requirement)
# ----------------------------------------------------------------------
def replay_overload(phases, slo=None, window_samples=32):
    """Feed per-phase observations into a private registry, sampling
    between phases, and return (monitor, final overload SloStatus)."""
    registry = MetricsRegistry()
    slo = slo or OverloadSlo(name="overload", layer="stream", min_wait_s=0.05)
    monitor = HealthMonitor(
        slos=(slo,), registry=registry, window_samples=window_samples
    )
    now_s = 0.0
    monitor.sample(now_s=now_s)
    for queue_waits, solve_times in phases:
        for wait_s in queue_waits:
            registry.observe("stream.queue_wait_s", wait_s)
        for solve_s in solve_times:
            registry.observe("engine.solve_s", solve_s)
        now_s += 1.0
        monitor.sample(now_s=now_s)
    report = monitor.evaluate()
    return monitor, report.slos[0]


class TestOverloadSlo:
    def test_queue_growth_with_steady_solve_breaches(self):
        steady = [0.05] * 10
        _, status = replay_overload(
            [
                ([0.06] * 10, steady),
                ([0.12] * 10, steady),
                ([0.35] * 10, steady),
                ([0.70] * 10, steady),
            ]
        )
        assert status.status == "breach"
        assert status.value >= 2.0  # the wait-growth ratio
        assert "solve" in status.detail

    def test_balanced_growth_does_not_breach(self):
        # Queue wait grows the same way, but solve time grows with it:
        # the work got heavier — capacity pressure, not queue overload.
        _, status = replay_overload(
            [
                ([0.06] * 10, [0.05] * 10),
                ([0.12] * 10, [0.10] * 10),
                ([0.35] * 10, [0.30] * 10),
                ([0.70] * 10, [0.60] * 10),
            ]
        )
        assert status.status != "breach"
        assert status.status == "warn"

    def test_idle_recent_window_reads_recovered(self):
        steady = [0.05] * 10
        _, status = replay_overload(
            [
                ([0.06] * 10, steady),
                ([0.35] * 10, steady),
                ([0.70] * 10, steady),
                ([], []),
                ([], []),
                ([], []),
            ]
        )
        assert status.status == "ok"
        assert "idle" in status.detail

    def test_small_waits_stay_under_floor(self):
        # Same growth shape, but microsecond-scale waits: coalescing
        # jitter, not overload.
        steady = [0.05] * 10
        _, status = replay_overload(
            [
                ([2e-6] * 10, steady),
                ([4e-6] * 10, steady),
                ([12e-6] * 10, steady),
                ([24e-6] * 10, steady),
            ]
        )
        assert status.status == "ok"
        assert "floor" in status.detail

    def test_insufficient_samples_is_ok(self):
        registry = MetricsRegistry()
        monitor = HealthMonitor(
            slos=(OverloadSlo(name="o", layer="stream"),), registry=registry
        )
        monitor.sample(now_s=0.0)
        status = monitor.evaluate().slos[0]
        assert status.status == "ok"
        assert "insufficient" in status.detail


# ----------------------------------------------------------------------
# Latency and error-rate SLOs: windowed, not lifetime
# ----------------------------------------------------------------------
class TestWindowedSlos:
    def test_latency_judges_the_window_not_the_lifetime(self):
        registry = MetricsRegistry()
        slo = LatencySlo(
            name="solve-p95",
            layer="engine",
            series="engine.solve_s",
            target_s=2.0,
        )
        monitor = HealthMonitor(slos=(slo,), registry=registry)
        # A slow past: 50 five-second solves, all before the window.
        for _ in range(50):
            registry.observe("engine.solve_s", 5.0)
        monitor.sample(now_s=0.0)
        # A healthy present inside the window.
        for _ in range(20):
            registry.observe("engine.solve_s", 0.01)
        monitor.sample(now_s=1.0)
        status = monitor.evaluate().slos[0]
        assert status.status == "ok", status.detail
        assert status.value < 0.1
        # And the converse: a latency regression happening now must
        # breach even though the lifetime histogram is mostly fast.
        for _ in range(20):
            registry.observe("engine.solve_s", 5.0)
        monitor.sample(now_s=2.0)
        status = monitor.evaluate().slos[0]
        assert status.status == "breach", status.detail
        assert status.value > 2.0
        assert status.burn_rate > 1.0

    def test_latency_without_traffic_is_ok(self):
        registry = MetricsRegistry()
        slo = LatencySlo(
            name="solve-p95",
            layer="engine",
            series="engine.solve_s",
            target_s=2.0,
        )
        monitor = HealthMonitor(slos=(slo,), registry=registry)
        monitor.sample(now_s=0.0)
        monitor.sample(now_s=1.0)
        status = monitor.evaluate().slos[0]
        assert status.status == "ok"
        assert "no traffic" in status.detail

    def test_error_rate_budget_with_label_filter(self):
        registry = MetricsRegistry()
        slo = ErrorRateSlo(
            name="fix-errors",
            layer="loc",
            numerator="loc.fixes_total",
            numerator_labels=(("ok", "False"),),
            denominator="loc.fixes_total",
            budget_rel=0.05,
        )
        monitor = HealthMonitor(slos=(slo,), registry=registry)
        monitor.sample(now_s=0.0)
        registry.inc("loc.fixes_total", 97.0, ok=True)
        registry.inc("loc.fixes_total", 3.0, ok=False)
        monitor.sample(now_s=1.0)
        status = monitor.evaluate().slos[0]
        assert status.status == "ok"
        assert status.value == pytest.approx(0.03)
        registry.inc("loc.fixes_total", 80.0, ok=True)
        registry.inc("loc.fixes_total", 20.0, ok=False)
        monitor.sample(now_s=2.0)
        status = monitor.evaluate().slos[0]
        assert status.status == "breach"
        assert status.value > 0.05

    def test_invalid_slo_parameters_raise(self):
        with pytest.raises(ValueError):
            LatencySlo(name="x", layer="engine", series="", target_s=1.0)
        with pytest.raises(ValueError):
            LatencySlo(
                name="x", layer="e", series="s", target_s=1.0, quantile=1.5
            )
        with pytest.raises(ValueError):
            ErrorRateSlo(name="x", layer="e", numerator="", denominator="d")
        with pytest.raises(ValueError):
            OverloadSlo(name="x", layer="stream", growth_ratio=0.5)


class TestHealthMonitor:
    def test_window_is_bounded(self):
        monitor = HealthMonitor(registry=MetricsRegistry(), window_samples=5)
        for i in range(20):
            monitor.sample(now_s=float(i))
        assert monitor.n_samples == 5

    def test_background_sampler_thread(self):
        monitor = HealthMonitor(
            registry=MetricsRegistry(), interval_s=0.02, window_samples=64
        )
        monitor.start()
        monitor.start()  # idempotent
        try:
            deadline = time.time() + 5.0
            while monitor.n_samples < 3 and time.time() < deadline:
                time.sleep(0.02)
        finally:
            monitor.stop()
            monitor.stop()  # idempotent
        assert monitor.n_samples >= 3
        frozen = monitor.n_samples
        time.sleep(0.08)
        assert monitor.n_samples == frozen  # sampler actually stopped

    def test_default_slos_cover_all_four_layers(self):
        assert {slo.layer for slo in DEFAULT_SLOS} == {
            "engine",
            "service",
            "stream",
            "loc",
        }

    def test_worst_status_ordering(self):
        assert worst_status([]) == "ok"
        assert worst_status(["ok", "warn", "ok"]) == "warn"
        assert worst_status(["warn", "breach", "ok"]) == "breach"

    def test_report_shape_round_trips_json(self):
        monitor = HealthMonitor(registry=MetricsRegistry())
        report = monitor.evaluate(sample_now=True)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["status"] == "ok"
        assert payload["n_samples"] == 1
        assert len(payload["slos"]) == len(DEFAULT_SLOS)
        assert {"name", "layer", "status", "burn_rate"} <= set(
            payload["slos"][0]
        )


# ----------------------------------------------------------------------
# Per-layer report() hooks (satellite) and the top-level aggregator
# ----------------------------------------------------------------------
class TestReportHooks:
    def test_engine_and_service_reports(self, rng):
        service = RangingService(FAST_CONFIG)
        h = one_link(rng, SMALL)
        service.submit([RangingRequest("r0", SMALL, h)])
        engine_report = service.engine.report()
        assert engine_report["layer"] == "engine"
        assert "engine.solve_s" in engine_report["metrics"]
        service_report = service.report()
        assert service_report["layer"] == "service"
        (requests,) = service_report["metrics"]["service.requests_total"]["series"]
        assert requests["value"] == 1
        assert "service.submit_s" in service_report["metrics"]
        assert service_report["engine"]["layer"] == "engine"

    def test_aggregator_walks_all_layers(self, rng):
        engine = BatchTofEngine(FAST_CONFIG)
        service = RangingService(FAST_CONFIG, engine=engine)
        monitor = HealthMonitor(registry=MetricsRegistry())
        aggregate = obs_report(engine, service, monitor=monitor)
        assert [layer["layer"] for layer in aggregate["layers"]] == [
            "engine",
            "service",
        ]
        assert aggregate["health"]["status"] == "ok"


# ----------------------------------------------------------------------
# The HTTP endpoint
# ----------------------------------------------------------------------
class TestObsServer:
    def test_metrics_health_traces_routes(self, rng):
        REGISTRY.inc("stream.requests_total", 3.0)
        REGISTRY.observe("engine.solve_s", 0.01, method="hybrid")
        TRACER.configure(enabled=True, ring_size=64)
        with TRACER.span("unit.test"):
            pass
        monitor = HealthMonitor()  # default SLOs over the global registry
        with ObsServer(port=0, monitor=monitor) as server:
            status, body = http_get(server.url + "/metrics")
            assert status == 200
            assert "repro_stream_requests_total 3" in body
            assert 'repro_engine_solve_s_bucket{method="hybrid",le="+Inf"}' in body

            status, body = http_get(server.url + "/health")
            assert status == 200
            payload = json.loads(body)
            assert payload["status"] == "ok"
            assert len(payload["slos"]) == len(DEFAULT_SLOS)

            status, body = http_get(server.url + "/traces")
            assert status == 200
            payload = json.loads(body)
            assert payload["n_spans"] == 1
            assert payload["spans"][0]["name"] == "unit.test"

            status, body = http_get(server.url + "/traces?limit=0")
            assert json.loads(body)["n_spans"] == 0
            status, _ = http_get(server.url + "/traces?limit=oops")
            assert status == 400

            status, body = http_get(server.url + "/nope")
            assert status == 404
            assert "/metrics" in json.loads(body)["routes"]
        assert not server.running

    def test_health_503_on_breach_and_200_after_drain(self):
        # Synthetic replay pinned to a breach, served over HTTP.
        registry = MetricsRegistry()
        monitor = HealthMonitor(
            slos=(
                OverloadSlo(name="overload", layer="stream", min_wait_s=0.05),
            ),
            registry=registry,
            window_samples=64,
        )
        monitor.sample(now_s=0.0)
        steady = [0.05] * 10
        for phase, waits in enumerate(([0.06] * 10, [0.3] * 10, [0.8] * 10)):
            for wait_s in waits:
                registry.observe("stream.queue_wait_s", wait_s)
            for solve_s in steady:
                registry.observe("engine.solve_s", solve_s)
            monitor.sample(now_s=1.0 + phase)
        with ObsServer(
            port=0, registry=registry, monitor=monitor, sample_on_request=False
        ) as server:
            status, body = http_get(server.url + "/health")
            assert status == 503
            payload = json.loads(body)
            assert payload["status"] == "breach"
            assert payload["slos"][0]["kind"] == "overload"
            # Drain: idle samples until the recent half-window is quiet.
            for i in range(8):
                monitor.sample(now_s=10.0 + i)
            status, body = http_get(server.url + "/health")
            assert status == 200
            assert json.loads(body)["status"] == "ok"

    def test_stream_config_serve_port_wires_an_endpoint(self, make_streaming):
        streaming = make_streaming(
            FAST_CONFIG, StreamConfig(serve_port=0)
        )
        assert streaming.obs_server is not None
        status, _ = http_get(streaming.obs_server.url + "/metrics")
        assert status == 200
        streaming.close()
        assert not streaming.obs_server.running

    def test_loc_config_serve_port_wires_an_endpoint(self, make_loc_service):
        """The loc service's endpoint is its ranging stream's: one option,
        ``StreamConfig(serve_port=...)``, serving the process registry."""
        from repro.rf.geometry import Point

        service = make_loc_service(
            [Point(0.0, 0.0), Point(10.0, 0.0)],
            FAST_CONFIG,
            stream=StreamConfig(serve_port=0),
        )
        server = service.ranging.obs_server
        assert server is not None
        status, body = http_get(server.url + "/health")
        assert status == 200
        assert "slos" in json.loads(body)
        service.close()
        assert not server.running

    def test_serve_port_validation(self):
        with pytest.raises(ValueError):
            StreamConfig(serve_port=70000)


class TestOverloadEndToEnd:
    def test_saturated_stream_queue_breaches_health_then_drains(self, rng):
        """The acceptance flow: a load test saturates the stream queue
        (arrivals outpace fixed-cost flushes), /health goes 503 with the
        overload SLO breached, and draining brings it back to 200."""

        class SlowEngine(BatchTofEngine):
            # A fixed per-flush cost dominates the solve, so
            # engine.solve_s holds steady while the backlog — and with
            # it stream.queue_wait_s — grows linearly: overload by the
            # ROADMAP's definition.  The sleep runs inside the
            # engine.solve span, so the solve times the SLO compares
            # carry the fixed cost rather than a few ms of real solving.
            def _estimate_group_stack(self, *args, **kwargs):
                time.sleep(0.04)
                return super()._estimate_group_stack(*args, **kwargs)

        streaming = StreamingRangingService(
            FAST_CONFIG,
            # A small batch cap: service rate is capped at 4 links per
            # ~40 ms while all submissions arrive up front — a genuinely
            # saturated queue.
            StreamConfig(max_wait_s=0.0, max_batch_links=4),
            service=RangingService(FAST_CONFIG, engine=SlowEngine(FAST_CONFIG)),
        )
        monitor = HealthMonitor(
            slos=(
                OverloadSlo(name="overload", layer="stream", min_wait_s=0.01),
            ),
            window_samples=256,
        )
        server = ObsServer(port=0, monitor=monitor, sample_on_request=False)
        server.start()
        n_links = 48
        H = [one_link(rng, SMALL, tau=20e-9 + i * 1e-9) for i in range(n_links)]

        async def drive():
            loop = asyncio.get_running_loop()
            monitor.sample()
            tasks = [
                asyncio.ensure_future(
                    streaming.submit(RangingRequest(f"l{i}", SMALL, H[i]))
                )
                for i in range(n_links)
            ]
            while not all(task.done() for task in tasks):
                await asyncio.sleep(0.03)
                monitor.sample()
            responses = await asyncio.gather(*tasks)
            loaded = await loop.run_in_executor(
                None, http_get, server.url + "/health"
            )
            # Drain: the queue is empty; once the recent half-window
            # holds no queue-wait observations the monitor must read
            # recovered — exactly what a load balancer needs to re-admit.
            for _ in range(2 * monitor.n_samples + 4):
                monitor.sample()
            drained = await loop.run_in_executor(
                None, http_get, server.url + "/health"
            )
            return responses, loaded, drained

        try:
            responses, (loaded_status, loaded_body), (
                drained_status,
                drained_body,
            ) = asyncio.run(drive())
        finally:
            server.stop()
            streaming.close()

        assert all(r.estimate is not None for r in responses)
        loaded_payload = json.loads(loaded_body)
        assert loaded_status == 503, loaded_payload
        overload = loaded_payload["slos"][0]
        assert overload["kind"] == "overload"
        assert overload["status"] == "breach"
        drained_payload = json.loads(drained_body)
        assert drained_status == 200, drained_payload
        assert drained_payload["status"] == "ok"


# ----------------------------------------------------------------------
# Tracer sink rotation (satellite)
# ----------------------------------------------------------------------
class TestTracerRotation:
    def test_sink_rolls_over_once_past_max_bytes(self, tmp_path):
        trace_file = tmp_path / "trace.jsonl"
        TRACER.configure(
            enabled=True, trace_file=trace_file, max_bytes=4096
        )
        for i in range(100):
            TRACER.record_span(
                f"stage.{i % 3}", start_perf_s=0.0, end_perf_s=0.001, seq=i
            )
        TRACER.configure(enabled=False)
        rollover = tmp_path / "trace.jsonl.1"
        assert rollover.exists()
        # The live file stays under the bound (rotation happens at the
        # write that crosses it) and both halves hold only whole lines
        # — a single `.1` rollover keeps disk at ~2x max_bytes, so the
        # oldest spans are discarded but the newest always survive.
        assert trace_file.stat().st_size <= 4096 + 1024
        seqs = []
        for path in (rollover, trace_file):
            for line in path.read_text().splitlines():
                seqs.append(json.loads(line)["attrs"]["seq"])
        assert seqs == sorted(seqs)
        assert seqs[-1] == 99
        assert len(seqs) >= 10

    def test_rollover_replaces_previous_rollover(self, tmp_path):
        trace_file = tmp_path / "trace.jsonl"
        TRACER.configure(enabled=True, trace_file=trace_file, max_bytes=512)
        for i in range(200):
            TRACER.record_span("s", start_perf_s=0.0, end_perf_s=0.001)
        TRACER.configure(enabled=False)
        # Exactly one rollover file no matter how many rotations ran.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "trace.jsonl",
            "trace.jsonl.1",
        ]

    def test_max_bytes_validation(self):
        with pytest.raises(ValueError):
            TRACER.configure(enabled=False, max_bytes=0)


# ----------------------------------------------------------------------
# summarize: stdin + crashed-writer degradation (satellite)
# ----------------------------------------------------------------------
class TestSummarizeCli:
    SPAN = {
        "name": "stage.a",
        "trace_id": "t1",
        "span_id": "s1",
        "parent_id": None,
        "duration_s": 0.5,
    }

    def test_stdin_input(self, monkeypatch, capsys):
        lines = "\n".join(json.dumps(self.SPAN) for _ in range(3)) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        assert obs_main(["summarize", "-"]) == 0
        out = capsys.readouterr().out
        assert "3 spans from <stdin>" in out
        assert "stage.a" in out

    def test_partial_lines_degrade_gracefully(self, tmp_path, capsys):
        trace_file = tmp_path / "trace.jsonl"
        good = json.dumps(self.SPAN)
        torn = good[: len(good) // 2]  # a crashed writer's partial line
        trace_file.write_text(f"{good}\n{torn}\n{good}\n{torn}{good}\n")
        assert obs_main(["summarize", str(trace_file)]) == 0
        captured = capsys.readouterr()
        assert "skipped 2 ill-formed line(s)" in captured.err
        assert "2 spans from" in captured.out

    def test_all_partial_lines_exit_1_with_clear_message(
        self, tmp_path, capsys
    ):
        trace_file = tmp_path / "trace.jsonl"
        trace_file.write_text('{"name": "torn\n{"half\nnot json at all\n')
        assert obs_main(["summarize", str(trace_file)]) == 1
        err = capsys.readouterr().err
        assert "no valid spans" in err
        assert "3 ill-formed line(s) skipped" in err
        assert "crashed writer" in err
