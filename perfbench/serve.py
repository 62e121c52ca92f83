"""The serving process of one benchmark run.

Usage (started by ``run.py`` as a fresh process, so that set-up and
peak memory are the workload's own)::

    python3 perfbench/serve.py --inputs IN.pkl --out OUT.json \
        --seconds 50 [--setup-only] [--trace]

It times its set-up -- importing the serving stack, constructing it,
warming the operator cache for the workload's band plans and, for
``csi_sweeps``, calibrating the device pairs -- then serves the workload
for ``--seconds`` and writes every op's timing and answer to ``--out``.
With ``--setup-only`` it stops after the set-up.  Loading the generated
inputs is not part of the set-up.
"""

from __future__ import annotations

import time

_PROCESS_START_S = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import repro.core  # noqa: E402,F401  (timed as part of set-up)
import repro.loc  # noqa: E402,F401
import repro.net  # noqa: E402,F401
import repro.stream  # noqa: E402,F401

IMPORT_S = time.perf_counter() - _PROCESS_START_S

import workloads  # noqa: E402
from repro.rf.constants import SPEED_OF_LIGHT  # noqa: E402


def warmup_request(link_id: str, freqs_hz):
    """A clean 5 m link on a band plan; solving it warms that plan."""
    from repro.net import RangingRequest

    delay_s = 2 * 5.0 / SPEED_OF_LIGHT
    return RangingRequest(link_id, freqs_hz, workloads.steer(freqs_hz, delay_s))


def ranging_record(timing: dict, key, response, true_tof_s: float) -> dict:
    """One ranging op's timing and answer, scored against ground truth."""
    ok = response.ok and math.isfinite(response.estimate.tof_s)
    record = {**timing, "key": key, "ok": ok}
    if ok:
        record["tof_s"] = response.estimate.tof_s
        record["err_m"] = abs(response.estimate.tof_s - true_tof_s) * SPEED_OF_LIGHT
    return record


class PhaseClock:
    """Wall and process CPU time since the start of the measured phase.

    The clocks stop while the benchmark draws inputs between ops, so
    that they time the program's work only.
    """

    def __init__(self) -> None:
        self.start = (time.perf_counter(), time.process_time())
        self.paused = (0.0, 0.0)

    def now(self) -> tuple[float, float]:
        return (
            time.perf_counter() - self.start[0] - self.paused[0],
            time.process_time() - self.start[1] - self.paused[1],
        )

    def totals(self) -> dict:
        wall_s, cpu_s = self.now()
        return {"wall_s": wall_s, "cpu_s": cpu_s}

    def pause_since(self, wall_s: float, cpu_s: float) -> None:
        """Leave the time since ``(wall_s, cpu_s)`` off the clocks."""
        self.paused = (
            self.paused[0] + time.perf_counter() - wall_s,
            self.paused[1] + time.process_time() - cpu_s,
        )


class Workload:
    """Builds one workload's stack and runs its ops."""

    def __init__(self, inputs: dict, rec) -> None:
        self.inputs = inputs
        self.rec = rec

    def traced(self, kind: str, obj):
        return obj if self.rec is None else getattr(self.rec, kind)(obj)

    def build(self, config, stream_config=None):
        from repro.core import BatchTofEngine
        from repro.net import RangingService
        from repro.stream import StreamingRangingService

        engine = self.traced("engine", BatchTofEngine(config))
        service = self.traced("service", RangingService(engine=engine))
        self.stream_service = StreamingRangingService(
            service=service, stream=stream_config
        )
        self.stream = self.traced("stream", self.stream_service)

    async def op(self, op_id, call):
        """Run one op; return its timing record and its answer.

        ``start_s``/``end_s`` bound the call on ``time.perf_counter``.
        """
        if self.rec is not None:
            from tracing import CURRENT_OP

            CURRENT_OP.set(op_id)
        start = time.perf_counter()
        result = await call
        end = time.perf_counter()
        timing = {
            "op": op_id,
            "start_s": start,
            "end_s": end,
            "latency_s": end - start,
        }
        return timing, result

    def close(self) -> None:
        self.stream_service.close()


class FleetLocate(Workload):
    """Closed loop, tick-synchronous: 16 concurrent locate calls per tick."""

    root_layer = "loc"

    async def setup(self) -> None:
        from repro.core import TofEstimatorConfig
        from repro.loc import LocalizationService, PositionTrackerBank
        from repro.rf.geometry import Point
        from repro.stream import StreamConfig

        n_links = workloads.FLEET_CLIENTS * workloads.FLEET_ANCHORS_PER_CLIENT
        # The size cap, not the timer, closes each tick's flush: a
        # millisecond window can expire mid-gather and split the tick.
        self.build(
            TofEstimatorConfig(),
            StreamConfig(max_wait_s=600.0, max_batch_links=n_links),
        )
        self.loc = LocalizationService(
            [Point(x, y) for x, y in self.inputs["anchors"]],
            ranging=self.stream,
            trackers=PositionTrackerBank(),
        )
        warm = asyncio.ensure_future(
            self.stream.submit(warmup_request("warmup", self.inputs["freqs_hz"]))
        )
        await asyncio.sleep(0)
        await self.stream.drain()
        await warm

    async def measure(self, seconds: float) -> dict:
        from repro.net import RangingRequest
        from repro.rf.geometry import Point

        inputs = self.inputs
        freqs = inputs["freqs_hz"]
        ops: list[dict] = []
        period = workloads.FLEET_DEAD_TICK_PERIOD
        tick = 0
        clock = PhaseClock()
        drawing = clock.start
        while True:
            # Whole dead-radio cycles only, so every run has the same op
            # mix, and no cycle that would run past ``seconds`` at the
            # pace so far.
            if tick and not tick % period:
                elapsed_s = clock.now()[0]
                if elapsed_s * (tick + period) / tick > seconds:
                    break
            rows = workloads.fleet_tick(inputs, tick)
            requests = [
                [
                    RangingRequest(f"client-{i}:anchor-{k}", freqs, h)
                    for k, h in zip(inputs["anchor_sets"][i], client_rows, strict=True)
                ]
                for i, client_rows in enumerate(rows)
            ]
            t_s = workloads.fleet_time_s(tick)
            order = workloads.fleet_call_order(inputs, tick)
            clock.pause_since(*drawing)
            results = await asyncio.gather(
                *(
                    self.op(
                        (tick, i),
                        self.loc.locate(
                            f"client-{i}",
                            requests[i],
                            time_s=t_s,
                            anchor_indices=inputs["anchor_sets"][i],
                        ),
                    )
                    for i in order
                )
            )
            drawing = (time.perf_counter(), time.process_time())
            for i, (timing, fix) in zip(order, results, strict=True):
                record = {
                    **timing,
                    "key": f"{tick}:{i}",
                    "tick": tick,
                    "ok": bool(fix.ok),
                    "distances_m": [
                        d if math.isfinite(d) else None for d in fix.distances_m
                    ],
                    "anchor_failed": [e is not None for e in fix.anchor_errors],
                }
                if fix.ok:
                    truth = Point(*workloads.fleet_position(inputs, i, tick))
                    record["position"] = [fix.position.x, fix.position.y]
                    record["err_m"] = fix.position.distance_to(truth)
                if fix.ok and self.rec is not None:
                    # The circle system the fix was solved from, which
                    # links the op to its position-solve span.
                    record["solve_rows"] = [
                        tuple(
                            d
                            for d, e in zip(fix.distances_m, fix.anchor_errors, strict=True)
                            if e is None
                        )
                    ]
                ops.append(record)
            tick += 1
        clock.pause_since(*drawing)
        return {"ops": ops, **clock.totals()}

    def close(self) -> None:
        self.loc.close()


class CsiSweeps(Workload):
    """Closed loop: two concurrent callers over a pool of raw sweeps."""

    root_layer = "bench"
    callers = 2

    async def setup(self) -> None:
        from repro.core import LinkCalibration, TofEstimatorConfig
        from repro.stream import SweepRequest

        self.build(TofEstimatorConfig())
        pairs = self.inputs["pairs"]
        responses = await asyncio.gather(
            *(
                self.stream.submit(SweepRequest(f"calibration-{p}", pair["sweeps"]))
                for p, pair in enumerate(pairs)
            )
        )
        self.calibrations = []
        for pair, response in zip(pairs, responses, strict=True):
            if not response.ok:
                raise RuntimeError(f"calibration failed: {response.error}")
            estimate = response.estimate
            self.calibrations.append(
                LinkCalibration.fit(
                    estimate.raw_tof_s,
                    pair["true_tof_s"],
                    estimate.coarse_round_trip_s,
                )
            )

    async def measure(self, seconds: float) -> dict:
        from repro.stream import SweepRequest

        pool = self.inputs["pool"]
        order = self.inputs["order"]
        ops: list[dict] = []
        clock = PhaseClock()

        async def caller(n: int) -> None:
            while clock.now()[0] < seconds:
                key = order[n % len(order)]
                item = pool[key]
                request = SweepRequest(
                    f"link-{n}",
                    (item["sweep"],),
                    calibration=self.calibrations[item["pair"]],
                )
                timing, response = await self.op(n, self.stream.submit(request))
                ops.append(ranging_record(timing, key, response, item["true_tof_s"]))
                n += self.callers

        await asyncio.gather(*(caller(c) for c in range(self.callers)))
        ops.sort(key=lambda r: r["op"])
        return {"ops": ops, **clock.totals()}


WORKLOADS = {
    "fleet_locate": FleetLocate,
    "csi_sweeps": CsiSweeps,
}


def _blas() -> str:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):  # informational only
        return "unknown"


async def _serve(args, inputs: dict, setup_start: float) -> dict:
    from repro.core.ndft import operator_cache_stats

    rec = None
    if args.trace:
        from tracing import Recorder

        rec = Recorder()
        rec.install()
    runner = WORKLOADS[inputs["workload"]](inputs, rec)
    try:
        await runner.setup()
        setup_s = IMPORT_S + time.perf_counter() - setup_start
        builds_setup = operator_cache_stats()["misses"]
        out = {"setup_s": setup_s, "operator_builds_setup": builds_setup}
        if args.setup_only:
            return out
        if rec is not None:
            rec.recording = True
        phase = await runner.measure(args.seconds)
        if rec is not None:
            rec.recording = False
    finally:
        runner.close()
    out.update(phase)
    out["operator_builds_measured"] = operator_cache_stats()["misses"] - builds_setup
    if rec is not None:
        from tracing import layer_metrics

        out["layers"], out["accounting"] = layer_metrics(
            rec, phase["ops"], runner.root_layer
        )
        rec.uninstall()
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    with open(args.inputs, "rb") as f:
        inputs = pickle.load(f)  # written by run.py for this run
    setup_start = time.perf_counter()
    out = asyncio.run(_serve(args, inputs, setup_start))
    out["rss_peak_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["blas"] = _blas()
    with open(args.out, "w") as f:
        json.dump(out, f, default=float)
    return 0


if __name__ == "__main__":
    sys.exit(main())
