"""The observability layer: registry, tracer, instrumentation, CLI.

The contracts under test: the metrics registry counts correctly under
concurrent writers and renders valid Prometheus text; spans form a
single trace tree across the asyncio loop and the flush worker
thread; telemetry is returned per
call (no shared-attribute races); and the ``summarize`` CLI holds its
exit-code contract (0 = table, 1 = empty/ill-formed, 2 = usage).
"""

import asyncio
import dataclasses
import json
import threading

import numpy as np
import pytest

from repro.core.batch import BatchTofEngine
from repro.core.deflation import DeflationConfig
from repro.core.deflation_batch import lasso_amplitudes_batch
from repro.core.ndft import steering_vector
from repro.core.sparse import SparseSolverConfig
from repro.core.tof import TofEstimatorConfig
from repro.net.service import (
    RangingRequest,
    RangingService,
    plan_label,
)
from repro.obs import (
    COUNT_BUCKETS,
    REGISTRY,
    TRACER,
    MetricsRegistry,
    timed_span,
    trace,
)
from repro.obs.cli import main as obs_main
from repro.obs.cli import summarize_spans
from repro.rf.constants import SPEED_OF_LIGHT
from repro.rf.environment import free_space
from repro.rf.geometry import Point
from repro.stream import StreamConfig, StreamingRangingService
from repro.wifi.bands import US_BAND_PLAN
from repro.wifi.hardware import INTEL_5300
from repro.wifi.radio import SimulatedLink

FREQS = US_BAND_PLAN.subset_5g().center_frequencies_hz
SMALL = US_BAND_PLAN.subset_5g().decimate(2).center_frequencies_hz

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


def intel_sweep(rng, distance_m):
    """A free-space Intel 5300 sweep over both band groups (6 + 12 bands)."""
    return SimulatedLink(
        environment=free_space(),
        tx_position=Point(0.0, 0.0),
        rx_position=Point(distance_m, 0.0),
        tx_state=INTEL_5300.sample_device_state(rng),
        rx_state=INTEL_5300.sample_device_state(rng),
        band_plan=US_BAND_PLAN.decimate(2),
        rng=rng,
    ).sweep(2)


@pytest.fixture(autouse=True)
def clean_obs():
    """Isolate every test from the process-wide registry and tracer.

    ``configure(ring_size=None)`` keeps the current ring, so the reset
    must pin the size back explicitly or the ring-cap test would leak
    its tiny ring into every test after it.
    """
    REGISTRY.reset()
    TRACER.configure(enabled=False, ring_size=4096)
    TRACER.clear()
    yield
    TRACER.configure(enabled=False, ring_size=4096)
    TRACER.clear()
    REGISTRY.reset()


class TestMetricsRegistry:
    def test_counters_gauges_and_labels(self):
        reg = MetricsRegistry()
        reg.inc("req.total", plan="a")
        reg.inc("req.total", 2.0, plan="a")
        reg.inc("req.total", plan="b")
        reg.set_gauge("depth", 7, layer="stream")
        reg.set_gauge("depth", 3, layer="stream")
        assert reg.value("req.total", plan="a") == 3.0
        assert reg.value("req.total", plan="b") == 1.0
        assert reg.value("depth", layer="stream") == 3.0
        assert reg.value("absent") == 0.0

    def test_counter_cannot_decrease(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="cannot decrease"):
            reg.inc("req.total", -1.0)

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.inc("x")
        with pytest.raises(ValueError, match="is a counter"):
            reg.set_gauge("x", 1.0)
        with pytest.raises(ValueError, match="is a counter"):
            reg.observe("x", 1.0)

    def test_histogram_bucket_golden(self):
        """Fixed bounds, inclusive ``le``, cumulative counts, +Inf tail."""
        reg = MetricsRegistry()
        for value in (0.5, 1.0, 1.5, 3.0, 100.0):
            reg.observe("lat", value, buckets=(1.0, 2.0, 4.0))
        text = reg.render_prometheus()
        assert '# TYPE repro_lat histogram' in text
        assert 'repro_lat_bucket{le="1"} 2' in text  # 0.5 and the inclusive 1.0
        assert 'repro_lat_bucket{le="2"} 3' in text
        assert 'repro_lat_bucket{le="4"} 4' in text
        assert 'repro_lat_bucket{le="+Inf"} 5' in text
        assert 'repro_lat_sum 106' in text
        assert 'repro_lat_count 5' in text

    def test_prometheus_counter_golden(self):
        reg = MetricsRegistry()
        reg.inc("stream.requests_total", 4, plan="plan-a0b1c2")
        text = reg.render_prometheus()
        assert text == (
            "# TYPE repro_stream_requests_total counter\n"
            'repro_stream_requests_total{plan="plan-a0b1c2"} 4\n'
        )

    def test_snapshot_shape_and_prefix_filter(self):
        reg = MetricsRegistry()
        reg.inc("stream.flushes_total")
        reg.observe("engine.solve_s", 0.25)
        snap = reg.snapshot()
        assert set(snap) == {"stream.flushes_total", "engine.solve_s"}
        hist = snap["engine.solve_s"]
        assert hist["kind"] == "histogram"
        (series,) = hist["series"]
        assert series["count"] == 1
        assert series["sum"] == pytest.approx(0.25)
        assert series["max"] == pytest.approx(0.25)
        assert series["p50"] > 0.0 and series["p95"] > 0.0
        only_engine = reg.snapshot(prefix="engine.")
        assert set(only_engine) == {"engine.solve_s"}
        # The JSON render round-trips.
        assert json.loads(reg.render_json())["stream.flushes_total"][
            "kind"
        ] == "counter"

    def test_quantiles_interpolate_inside_bucket(self):
        reg = MetricsRegistry()
        for _ in range(10):
            reg.observe("h", 1.5, buckets=(1.0, 2.0, 4.0))
        (series,) = reg.snapshot()["h"]["series"]
        assert 1.0 <= series["p50"] <= 2.0
        assert 1.0 <= series["p95"] <= 2.0

    def test_timer_context_manager_observes(self):
        reg = MetricsRegistry()
        with reg.time("block_s", stage="x"):
            pass
        (series,) = reg.snapshot()["block_s"]["series"]
        assert series["count"] == 1
        assert series["labels"] == {"stage": "x"}

    def test_thread_safety_under_concurrent_writers(self):
        reg = MetricsRegistry()

        def hammer():
            for _ in range(1000):
                reg.inc("hits", worker="shared")
                reg.observe("lat", 0.001, worker="shared")

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.value("hits", worker="shared") == 8000.0
        (series,) = reg.snapshot()["lat"]["series"]
        assert series["count"] == 8000

    def test_reset_drops_everything(self):
        reg = MetricsRegistry()
        reg.inc("x")
        reg.reset()
        assert reg.snapshot() == {}


class TestTracer:
    def test_disabled_tracer_is_inert(self):
        with trace.span("anything", plan="x") as span:
            span.set_attr(more="attrs")  # the null span accepts attrs
            assert span.context is None
        trace.record_span("queue", start_perf_s=0.0, end_perf_s=1.0)
        assert TRACER.finished() == []

    def test_nesting_shares_trace_and_parents(self):
        TRACER.configure(enabled=True)
        with trace.span("root") as root:
            with trace.span("child") as child:
                assert child.trace_id == root.trace_id
                assert child.parent_id == root.span_id
            with trace.span("leaf", parent=None) as leaf:
                assert leaf.trace_id != root.trace_id  # explicit new root
        spans = {s["name"]: s for s in TRACER.finished()}
        assert spans["root"]["parent_id"] is None
        assert spans["child"]["parent_id"] == spans["root"]["span_id"]
        # Children finish before parents in the ring (exit order).
        assert [s["name"] for s in TRACER.finished()] == [
            "child",
            "leaf",
            "root",
        ]

    def test_error_is_recorded_and_propagates(self):
        TRACER.configure(enabled=True)
        with pytest.raises(RuntimeError, match="boom"):
            with trace.span("failing"):
                raise RuntimeError("boom")
        (span,) = TRACER.finished()
        assert span["error"] == "RuntimeError: boom"

    def test_ring_buffer_caps_memory(self):
        TRACER.configure(enabled=True, ring_size=4)
        for i in range(10):
            with trace.span(f"s{i}", parent=None):
                pass
        names = [s["name"] for s in TRACER.finished()]
        assert names == ["s6", "s7", "s8", "s9"]  # oldest evicted

    def test_record_span_is_retroactive(self):
        TRACER.configure(enabled=True)
        with trace.span("parent") as parent:
            ctx = parent.context
        trace.record_span(
            "queue_wait",
            start_perf_s=10.0,
            end_perf_s=10.25,
            parent=ctx,
            link="l0",
        )
        span = TRACER.finished()[-1]
        assert span["duration_s"] == pytest.approx(0.25)
        assert span["trace_id"] == ctx.trace_id
        assert span["parent_id"] == ctx.span_id
        assert span["attrs"] == {"link": "l0"}

    def test_explicit_parent_survives_thread_hop(self):
        TRACER.configure(enabled=True)
        with trace.span("loop_side") as parent:
            ctx = parent.context

            def worker():
                # contextvars do not cross threads; the explicit parent
                # stitches the hop into the same trace.
                assert trace.current() is None
                with trace.span("worker_side", parent=ctx):
                    pass

            t = threading.Thread(target=worker)
            t.start()
            t.join()
        spans = {s["name"]: s for s in TRACER.finished()}
        assert (
            spans["worker_side"]["trace_id"] == spans["loop_side"]["trace_id"]
        )
        assert (
            spans["worker_side"]["parent_id"] == spans["loop_side"]["span_id"]
        )

    def test_asyncio_tasks_get_isolated_traces(self):
        """Two concurrent tasks each root their own trace — one task's
        spans never leak under the other's contextvar."""
        TRACER.configure(enabled=True)

        async def one_request(name):
            with trace.span(name) as span:
                await asyncio.sleep(0)
                return span.trace_id

        async def run():
            return await asyncio.gather(
                one_request("req_a"), one_request("req_b")
            )

        trace_a, trace_b = asyncio.run(run())
        assert trace_a != trace_b

    def test_jsonl_sink_writes_valid_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        TRACER.configure(enabled=True, trace_file=path)
        with trace.span("a", plan="p"):
            pass
        TRACER.configure(enabled=False)  # closes the sink
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["name"] == "a"
        assert record["attrs"] == {"plan": "p"}
        assert record["duration_s"] >= 0.0

    def test_timed_span_pairs_span_with_histogram(self):
        TRACER.configure(enabled=True)
        with timed_span("stage", "stage_s", {"kind": "test"}, n=3):
            pass
        (span,) = TRACER.finished()
        assert span["name"] == "stage"
        assert span["attrs"] == {"n": 3}
        (series,) = REGISTRY.snapshot()["stage_s"]["series"]
        assert series["count"] == 1
        assert series["labels"] == {"kind": "test"}


class TestPerCallTelemetry:
    """The satellite race fix: telemetry returned per call, not raced."""

    def test_engine_counts_fista_cap_hits(self, rng):
        """Solves that stop at max_iterations are counted, not hidden in
        the iteration histogram's overflow bucket; the histogram itself
        holds one observation per profile solve."""

        def iteration_counts():
            series = REGISTRY.snapshot()["engine.fista_iterations"]["series"]
            return {s["labels"]["method"]: s["count"] for s in series}

        links = np.vstack([one_link(rng, FREQS), one_link(rng, FREQS, 40e-9)])
        converging = TofEstimatorConfig(method="ista", quirk_2g4=False)
        BatchTofEngine(converging).estimate_products_batch(FREQS, links)
        assert "engine.fista_cap_hits_total" not in REGISTRY.snapshot()
        assert iteration_counts() == {"ista": 2}
        capped = TofEstimatorConfig(
            method="ista",
            quirk_2g4=False,
            sparse=SparseSolverConfig(max_iterations=3),
        )
        BatchTofEngine(capped).estimate_products_batch(FREQS, links)
        assert REGISTRY.value("engine.fista_cap_hits_total", method="ista") == 2.0
        assert iteration_counts() == {"ista": 4}
        # The hybrid path solves its diagnostic profile once per link,
        # and not at all when the profile is rasterized from paths.
        profiled = TofEstimatorConfig(quirk_2g4=False)
        BatchTofEngine(profiled).estimate_products_batch(FREQS, links)
        assert iteration_counts() == {"ista": 4, "hybrid": 2}
        BatchTofEngine(FAST_CONFIG).estimate_products_batch(FREQS, links)
        assert iteration_counts() == {"ista": 4, "hybrid": 2}
        # Sweeps carry two band groups per link; the hybrid path solves
        # the profile of each link's primary group only.
        sweeps = [[intel_sweep(rng, 2.0 + i)] for i in range(2)]
        BatchTofEngine(TofEstimatorConfig()).estimate_sweeps_batch(sweeps)
        assert iteration_counts() == {"ista": 4, "hybrid": 4}

    def test_lasso_counts_cap_hits(self):
        """Amplitude fits still iterating at ``max_iterations`` are
        counted; a clean two-atom link converges, leaving the counter
        absent, and a zero row (its least-squares fit) never counts."""
        delays = np.array([40e-9, 75e-9])
        clean = steering_vector(FREQS, 40e-9) + 0.5 * steering_vector(FREQS, 75e-9)
        lasso_amplitudes_batch([delays], FREQS, clean[None, :], 0.1)
        assert "engine.lasso_cap_hits_total" not in REGISTRY.snapshot()
        channels = np.vstack([clean, 0.5j * clean, np.zeros(len(FREQS))])
        lasso_amplitudes_batch([delays] * 3, FREQS, channels, 0.1, max_iterations=3)
        assert REGISTRY.value("engine.lasso_cap_hits_total") == 2.0

    def test_engine_counts_deflation_budget_hits(self, rng):
        """Extractions that end with ``max_paths`` atoms are counted.

        Fleet-like two-path links stop at their two components, so the
        counter stays absent; a one-atom budget fills on every link.
        """
        links = np.vstack(
            [
                steering_vector(FREQS, 2 * tau)
                + 0.35 * steering_vector(FREQS, 2 * tau + 30e-9)
                + 0.03 * (rng.normal(size=len(FREQS)) + 1j * rng.normal(size=len(FREQS)))
                for tau in (10e-9, 25e-9, 40e-9)
            ]
        )
        BatchTofEngine(FAST_CONFIG).estimate_products_batch(FREQS, links)
        assert "engine.deflation_budget_hits_total" not in REGISTRY.snapshot()
        one_atom = dataclasses.replace(
            FAST_CONFIG, deflation=DeflationConfig(max_paths=1)
        )
        BatchTofEngine(one_atom).estimate_products_batch(FREQS, links)
        assert REGISTRY.value(
            "engine.deflation_budget_hits_total", method="hybrid"
        ) == len(links)

    def test_service_returns_stats_per_call(self, rng):
        service = RangingService(FAST_CONFIG)
        requests = [
            RangingRequest("a", FREQS, one_link(rng, FREQS)),
            RangingRequest("b", SMALL, one_link(rng, SMALL)),
        ]
        out = []
        service.submit(requests, stats_out=out)
        (stats,) = out
        assert stats.n_requests == 2
        assert stats.n_plans == 2

        grouped_out = []
        service.submit_grouped(requests[:1], stats_out=grouped_out)
        (grouped,) = grouped_out
        assert grouped.n_requests == 1
        assert grouped.n_plans == 1
        assert REGISTRY.value("service.requests_total") == 3.0


class TestFlushPathTracing:
    """Span correctness across the loop-to-flush-worker thread hop."""

    def test_overlapping_plan_groups_share_the_flush_trace(
        self, rng, make_streaming
    ):
        """Two plan groups of one flush solve on the flush worker, off
        the loop thread, yet both ``stream.plan_solve`` spans are
        children of the same ``stream.flush`` span — the thread hop
        does not sever the trace tree."""
        TRACER.configure(enabled=True)
        streaming = make_streaming(FAST_CONFIG, StreamConfig(max_wait_s=0.0))

        async def run():
            return await asyncio.wait_for(
                asyncio.gather(
                    streaming.submit(
                        RangingRequest("wide", FREQS, one_link(rng, FREQS))
                    ),
                    streaming.submit(
                        RangingRequest("narrow", SMALL, one_link(rng, SMALL))
                    ),
                ),
                timeout=60.0,
            )

        responses = asyncio.run(run())
        assert all(r.ok for r in responses)

        spans = TRACER.finished()
        (flush,) = [s for s in spans if s["name"] == "stream.flush"]
        solves = [s for s in spans if s["name"] == "stream.plan_solve"]
        assert len(solves) == 2
        for solve in solves:
            assert solve["trace_id"] == flush["trace_id"]
            assert solve["parent_id"] == flush["span_id"]
            # Solves ran on the flush worker, not the loop thread.
            assert solve["thread"] != flush["thread"]
            assert solve["thread"].startswith("ranging-flush")
        assert solves[0]["thread"] == solves[1]["thread"]

    def test_single_request_is_one_trace_tree(
        self, rng, make_streaming, tmp_path
    ):
        """Acceptance criterion: submit → queue wait → flush →
        plan-group worker → engine kernel → resolve is one trace, and
        ``summarize`` tabulates it non-empty."""
        path = tmp_path / "trace.jsonl"
        TRACER.configure(enabled=True, trace_file=path)
        streaming = make_streaming(
            FAST_CONFIG, StreamConfig(max_wait_s=0.0)
        )

        async def run():
            return await streaming.submit(
                RangingRequest("solo", FREQS, one_link(rng, FREQS))
            )

        response = asyncio.run(run())
        assert response.ok
        TRACER.configure(enabled=False)  # close the sink

        spans = TRACER.finished()
        (submit,) = [s for s in spans if s["name"] == "stream.submit"]
        tree = [s for s in spans if s["trace_id"] == submit["trace_id"]]
        names = {s["name"] for s in tree}
        assert {
            "stream.submit",
            "stream.queue_wait",
            "stream.flush",
            "stream.plan_solve",
            "service.plan_solve",
            "engine.solve",
            "stream.resolve",
        } <= names
        assert len(tree) == len(spans)  # nothing escaped into other traces
        # Engine kernel stages nest under the engine solve.
        kernel = [s for s in tree if s["name"].startswith("engine.kernel.")]
        (engine_solve,) = [s for s in tree if s["name"] == "engine.solve"]
        assert kernel and all(
            s["parent_id"] == engine_solve["span_id"] for s in kernel
        )
        # The CLI summarizes the written trace with a non-empty table.
        assert obs_main(["summarize", str(path)]) == 0
        assert obs_main(["summarize", str(path), "--json"]) == 0

    def test_queue_wait_series_feeds_the_scaling_gate(
        self, rng, make_streaming
    ):
        """`stream.queue_wait_s` / `engine.solve_s` — the series the
        ROADMAP's sharding and overload items gate on — populate from
        a plain streaming round even with tracing off."""
        streaming = make_streaming(FAST_CONFIG, StreamConfig(max_wait_s=0.0))

        async def run():
            return await asyncio.gather(
                *(
                    streaming.submit(
                        RangingRequest(f"l{i}", FREQS, one_link(rng, FREQS))
                    )
                    for i in range(3)
                )
            )

        assert all(r.ok for r in asyncio.run(run()))
        snap = streaming.report()
        wait_series = snap["metrics"]["stream.queue_wait_s"]["series"]
        assert wait_series[0]["count"] == 3
        solve = snap["metrics"]["engine.solve_s"]["series"]
        assert sum(s["count"] for s in solve) >= 1
        assert snap["stats"]["n_requests"] == 3
        assert snap["n_pending"] == 0

    def test_loc_queue_wait_per_client(self, rng, make_loc_service):
        """One tick of N clients: N ``loc.queue_wait_s`` observations,
        each ≥ 0, and each client's ``loc.queue_wait`` span is a child of
        its own locate span."""
        TRACER.configure(enabled=True)
        anchors = [Point(0.0, 0.0), Point(10.0, 0.0), Point(10.0, 8.0), Point(0.0, 8.0)]
        service = make_loc_service(anchors, FAST_CONFIG)
        positions = [Point(2.0 + i, 3.0 + 0.5 * i) for i in range(3)]

        def requests(cid, position):
            return [
                RangingRequest(
                    f"{cid}:{k}",
                    FREQS,
                    one_link(
                        rng, FREQS, anchor.distance_to(position) / SPEED_OF_LIGHT
                    ),
                )
                for k, anchor in enumerate(anchors)
            ]

        async def run():
            return await asyncio.gather(
                *(
                    service.locate(f"c{i}", requests(f"c{i}", position))
                    for i, position in enumerate(positions)
                )
            )

        assert all(fix.ok for fix in asyncio.run(run()))
        assert service.stats.n_solves == 1
        (series,) = REGISTRY.snapshot()["loc.queue_wait_s"]["series"]
        assert series["count"] == len(positions)
        spans = TRACER.finished()
        locates = {
            s["attrs"]["client"]: s for s in spans if s["name"] == "loc.locate"
        }
        waits = [s for s in spans if s["name"] == "loc.queue_wait"]
        assert sorted(w["attrs"]["client"] for w in waits) == sorted(locates)
        for wait in waits:
            assert wait["duration_s"] >= 0.0
            locate = locates[wait["attrs"]["client"]]
            assert wait["parent_id"] == locate["span_id"]
            assert wait["trace_id"] == locate["trace_id"]
        assert series["sum"] == pytest.approx(sum(w["duration_s"] for w in waits))

    def test_loc_report_nests_the_serving_column(self, make_loc_service):
        service = make_loc_service(
            [Point(0.0, 0.0), Point(10.0, 0.0)], FAST_CONFIG
        )
        report = service.report()
        assert report["layer"] == "loc"
        assert report["ranging"]["layer"] == "stream"
        assert "metrics" in report and "stats" in report


class TestSummarizeCli:
    def _write(self, path, lines):
        path.write_text("\n".join(lines) + "\n")

    def test_missing_file_is_usage_error(self, tmp_path):
        assert obs_main(["summarize", str(tmp_path / "nope.jsonl")]) == 2

    def test_empty_and_illformed_files_fail(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert obs_main(["summarize", str(empty)]) == 1
        garbage = tmp_path / "garbage.jsonl"
        self._write(garbage, ["not json", '{"no": "span fields"}', "[1,2]"])
        assert obs_main(["summarize", str(garbage)]) == 1

    def test_valid_trace_summarizes(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        self._write(
            path,
            [
                json.dumps(
                    {
                        "name": "stream.flush",
                        "trace_id": "t1",
                        "span_id": "a",
                        "parent_id": None,
                        "duration_s": 0.010,
                    }
                ),
                json.dumps(
                    {
                        "name": "stream.plan_solve",
                        "trace_id": "t1",
                        "span_id": "b",
                        "parent_id": "a",
                        "duration_s": 0.004,
                    }
                ),
                "ill-formed line skipped",
            ],
        )
        assert obs_main(["summarize", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_spans"] == 2
        assert payload["n_traces"] == 1
        by_stage = {row["stage"]: row for row in payload["stages"]}
        # Self time subtracts the child's duration from the parent's.
        assert by_stage["stream.flush"]["self_s"] == pytest.approx(0.006)
        assert by_stage["stream.flush"]["cumulative_s"] == pytest.approx(0.010)
        assert by_stage["stream.plan_solve"]["self_s"] == pytest.approx(0.004)

    def test_self_time_never_goes_negative(self):
        rows = summarize_spans(
            [
                {
                    "name": "p",
                    "trace_id": "t",
                    "span_id": "a",
                    "parent_id": None,
                    "duration_s": 0.001,
                },
                {
                    "name": "c",
                    "trace_id": "t",
                    "span_id": "b",
                    "parent_id": "a",
                    # A retroactive child can overlap its parent's exit.
                    "duration_s": 0.005,
                },
            ]
        )
        by_stage = {row["stage"]: row for row in rows}
        assert by_stage["p"]["self_s"] == 0.0


class TestPlanLabel:
    def test_stable_and_bounded(self):
        sig = (b"\x00\x01binary", 2)
        label = plan_label(sig)
        assert label == plan_label(sig)
        assert label.startswith("plan-") and len(label) == len("plan-") + 6
        assert plan_label(("other", 8)) != label
