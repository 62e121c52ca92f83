"""The repository benchmark: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fleet_locate --seed 1 --seconds 50 --trace 0

Workloads (see ``workloads.py`` for the inputs):

* ``fleet_locate`` -- closed loop, tick-synchronous.  16 walking clients
  each ``locate`` against 4 of 6 anchors per tick: 64 product-level links
  per tick on the 24-band plan through one ``LocalizationService`` with a
  ``PositionTrackerBank``, library-default hybrid estimator.  The only
  workload that uses ``loc``, the trackers and the service's per-link
  retry path (every fourth tick carries one dead radio).
* ``csi_sweeps`` -- closed loop, two concurrent callers.  Raw Intel-5300
  sweeps through the paper's own front end (zero-subcarrier splines,
  CFO-cancelling products, 2.4 GHz quirk) as ``SweepRequest`` to a
  default ``StreamingRangingService``; four device pairs calibrated at
  1 m during set-up.  Bypasses ``net`` and ``loc``.

With ``--trace 0`` the last line of stdout is one JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run (plus ``bench.trace_overhead_frac`` from an untraced run of
the same ops).  The lines before it print every metric with its unit and
sample count, the BLAS build, the core count and the source revision.
The exit code is non-zero when an answer fails the correctness check.

Each run first sets the workload's stack up in ``SETUPS - 1`` fresh
processes that stop there, then serves the workload in one more fresh
process for ``--seconds``, all with BLAS and OpenMP pinned to one thread
and shape contracts off.  ``setup_s`` is the median of the ``SETUPS``
set-ups; throughput and CPU per op are totals over the measured phase,
and the latency percentiles are taken over all of its ops.  On a small
shared machine the same engine batch runs up to 30% slower for stretches
of seconds to minutes, so one long measured phase, rather than several
short ones that each pay a set-up, is what keeps the figures steady from
run to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench"
GOLDEN_DIR = HERE / "golden"

DEFAULT_SEED = 1
RUN_BUDGET_S = 170.0
SETUPS = 3
# fleet_locate scores the fixes of its first ticks only, which every run
# serves, so that its accuracy figures do not depend on the run's pace.
FLEET_SCORED_TICKS = 16
# ROADMAP tolerance for ToF drift between two versions of the stack.
TOF_TOLERANCE_S = 1e-12
# A ToF drift within tolerance moves a trilaterated fix by at most a few
# times c * 1e-12 s; anything beyond this is a different answer.
POSITION_TOLERANCE_M = 1e-3
# Traced runs: the layers each workload must show spans from.  A layer
# that stops being traced hands its time to the layer above it, so a
# missing one is an accounting failure, not a zero.
REQUIRED_LAYERS = {
    "fleet_locate": ("stream", "net", "engine", "deflation", "sparse", "loc.solve"),
    "csi_sweeps": ("stream", "engine", "frontend"),
}
# On csi_sweeps an op is the benchmark's own call into the stream, so
# nearly all of its time must belong to traced layers.
ROOT_SELF_LIMIT = {"csi_sweeps": 0.02}

# Ground-truth error envelopes, per workload: (p50 limit, p90 limit).
# Every workload has a few hard cases (ghost-dragged fixes, NLOS links,
# merged multipath) that stay meters off, so the envelope bounds the
# distribution, a few times above what the stack achieves today.
ERROR_ENVELOPE_M = {
    "fleet_locate": (0.01, 10.0),
    "csi_sweeps": (0.25, 15.0),
}
# The envelope is a statement about a distribution; tiny runs skip it.
MIN_ENVELOPE_ANSWERS = 20

PINNED_ENV = {
    # Two BLAS threads cost ~1.8x CPU for at most 5% less wall time on
    # these 24x399 operators; one thread keeps cpu_s_per_op steady.
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    # Runtime shape contracts are a test-suite feature, off in serving.
    "REPRO_CHECK_CONTRACTS": "0",
    "PYTHONHASHSEED": "0",
}

class BenchError(RuntimeError):
    """The run could not produce a result."""


def source_revision() -> str:
    """Git SHA when the checkout is its own repository, else a digest of src/."""
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        lines = git.stdout.split()
        if git.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


class Run:
    def __init__(self, args) -> None:
        self.args = args
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.work = WORK_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
        self.env = dict(os.environ)
        self.env.update(PINNED_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(HERE)]
            + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def child(self, name: str, seconds: float, *extra: str) -> dict:
        out = self.work / f"{name}.json"
        cmd = [
            sys.executable,
            str(HERE / "serve.py"),
            "--inputs",
            str(self.work / "inputs.pkl"),
            "--out",
            str(out),
            "--seconds",
            str(seconds),
            *extra,
        ]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting " + name)
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, timeout=remaining,
                capture_output=True, text=True,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{name} did not finish in time") from exc
        if proc.returncode != 0:
            raise BenchError(f"{name} failed:\n{proc.stderr[-4000:]}")
        with open(out) as f:
            return json.load(f)

    def prepare(self) -> None:
        os.environ.update(PINNED_ENV)
        sys.path[:0] = [str(ROOT / "src")]
        import workloads

        self.work.mkdir(parents=True, exist_ok=True)
        inputs = workloads.generate(self.args.workload, self.args.seed)
        with open(self.work / "inputs.pkl", "wb") as f:
            pickle.dump(inputs, f, protocol=pickle.HIGHEST_PROTOCOL)

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def answer_errors(workload: str, ops: list[dict]) -> list[float]:
    """Ground-truth error of each distinct problem answered.

    The accuracy figures must not depend on how much a run got done:
    ``csi_sweeps`` serves its pool of links round robin, and a link
    answered twice counts once; ``fleet_locate`` counts its first
    ``FLEET_SCORED_TICKS`` ticks.
    """
    if workload == "fleet_locate":
        ops = [op for op in ops if op["tick"] < FLEET_SCORED_TICKS]
    return list({op["key"]: op["err_m"] for op in ops if op["ok"]}.values())


def end_to_end(workload: str, serve: dict, setups: list[float]) -> tuple[dict, dict]:
    import numpy as np

    ops = serve["ops"]
    n = len(ops)
    latencies = [op["latency_s"] for op in ops]
    errors = answer_errors(workload, ops)
    if not errors:
        raise BenchError("no op got a usable answer")
    n_ok = sum(1 for op in ops if op["ok"])
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": n / serve["wall_s"],
        "cpu_s_per_op": serve["cpu_s"] / n,
        "latency_p50_s": np.quantile(latencies, 0.5),
        "latency_p90_s": np.quantile(latencies, 0.9),
        "success_frac": n_ok / n,
        "err_p50_m": np.quantile(errors, 0.5),
        "err_p90_m": np.quantile(errors, 0.9),
        "rss_peak_mb": serve["rss_peak_mb"],
    }
    beyond = [op for op in ops if op["latency_s"] > values["latency_p90_s"]]
    if workload == "fleet_locate":
        # A tick's 16 locates share one flush.
        beyond_note = f"{len(beyond)} beyond, from {len({op['tick'] for op in beyond})} ticks"
    else:
        beyond_note = f"{len(beyond)} beyond"
    samples = {
        "setup_s": f"{len(setups)} set-ups",
        "ops_per_s": f"{n} ops in {serve['wall_s']:.2f} s",
        "cpu_s_per_op": f"{n} ops in {serve['cpu_s']:.2f} CPU s",
        "latency_p50_s": f"{n} ops",
        "latency_p90_s": f"{n} ops; {beyond_note}",
        "success_frac": f"{n} ops, {n_ok} answered",
        "err_p50_m": f"{len(errors)} answers",
        "err_p90_m": f"{len(errors)} answers",
        "rss_peak_mb": "1 serving process",
    }
    return values, samples


def accounting_problems(workload: str, traced: dict) -> list[str]:
    """Where the traced run's per-layer accounting does not close."""
    accounting = traced["accounting"]
    problems = []
    missing = [
        layer for layer in REQUIRED_LAYERS[workload] if not accounting["spans"].get(layer)
    ]
    if missing:
        problems.append(f"no spans from layers the workload runs: {', '.join(missing)}")
    if accounting["unqueued_submits"]:
        problems.append(
            f"{accounting['unqueued_submits']} stream submits never reached "
            "a traced downstream call"
        )
    share = traced["layers"]["bench.root_self_frac"]
    limit = ROOT_SELF_LIMIT.get(workload)
    if limit is not None and share > limit:
        problems.append(
            f"{share:.1%} of op time is claimed by no traced layer (limit {limit:.0%})"
        )
    return problems


def check(workload: str, seed: int, serve: dict, golden: dict | None) -> list[str]:
    """Correctness violations of one serving run's answers."""
    import numpy as np

    ops = serve["ops"]
    problems: list[str] = []
    if not ops:
        return ["no op completed"]
    errors = answer_errors(workload, ops)
    # Every op of every workload has a usable answer: a dead radio costs
    # a fleet client one anchor, not its fix.
    failed = sum(1 for op in ops if not op["ok"])
    if failed:
        problems.append(f"{failed} of {len(ops)} ops got no usable answer")
    for q, limit in zip((0.5, 0.9), ERROR_ENVELOPE_M[workload], strict=True):
        if len(errors) < MIN_ENVELOPE_ANSWERS:
            continue
        err_m = float(np.quantile(errors, q))
        if err_m > limit:
            problems.append(f"p{q * 100:.0f} error {err_m:.4f} m > {limit} m")
    if workload == "fleet_locate":
        problems += _check_fleet(seed, ops, golden)
    elif workload == "csi_sweeps" and golden is not None:
        for op in ops:
            want = golden["tof_s"].get(str(op["key"]))
            if want is not None and (
                not op["ok"] or abs(op["tof_s"] - want) > TOF_TOLERANCE_S
            ):
                problems.append(f"link {op['op']}: ToF differs from golden")
                break
    return problems


def _check_fleet(seed: int, ops: list[dict], golden: dict | None) -> list[str]:
    import workloads
    from repro.rf.constants import SPEED_OF_LIGHT

    problems = []
    inputs = workloads.fleet_inputs(seed)
    for op in ops:
        tick, client = op["op"]
        dead = workloads.fleet_dead_link(inputs, tick)
        want_failed = [dead == (client, slot) for slot in range(len(op["anchor_failed"]))]
        if op["anchor_failed"] != want_failed:
            problems.append(
                f"tick {tick} client {client}: failed anchors {op['anchor_failed']}, "
                f"expected {want_failed}"
            )
            break
    if golden is None:
        return problems
    for op in ops:
        want = golden["ops"].get("{}:{}".format(*op["op"]))
        if want is None:
            continue
        if want["ok"] != op["ok"]:
            problems.append(f"op {op['op']}: ok={op['ok']} differs from golden")
            break
        for got_m, want_m in zip(op["distances_m"], want["distances_m"], strict=True):
            if (got_m is None) != (want_m is None) or (
                got_m is not None and abs(got_m - want_m) / SPEED_OF_LIGHT > TOF_TOLERANCE_S
            ):
                problems.append(f"op {op['op']}: anchor ToF differs from golden")
                break
        if op["ok"] and math.dist(op["position"], want["position"]) > POSITION_TOLERANCE_M:
            problems.append(f"op {op['op']}: position differs from golden")
        if problems:
            break
    return problems


def golden_of(workload: str, serve: dict) -> dict:
    if workload == "fleet_locate":
        return {
            "ops": {
                "{}:{}".format(*op["op"]): {
                    "ok": op["ok"],
                    "distances_m": op["distances_m"],
                    "position": op.get("position"),
                }
                for op in serve["ops"]
            }
        }
    return {
        "tof_s": {str(op["key"]): op["tof_s"] for op in serve["ops"] if op["ok"]}
    }


def write_golden(workload: str, golden: dict) -> None:
    """One answer per line, so that a changed answer is a one-line diff."""
    (table,) = golden
    lines = [
        f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
        for key, value in sorted(golden[table].items())
    ]
    GOLDEN_DIR.mkdir(exist_ok=True)
    (GOLDEN_DIR / f"{workload}.json").write_text(
        f"{{{json.dumps(table)}: {{\n" + ",\n".join(lines) + "\n}}\n"
    )


def load_golden(workload: str, seed: int) -> dict | None:
    """Golden answers that apply to this run, if any.

    ``csi_sweeps`` poses the same pool of links on every seed, so its
    golden ToFs apply to all of them; ``fleet_locate``'s dead radios
    move with the seed, so its golden fixes hold for the default seed.
    """
    path = GOLDEN_DIR / f"{workload}.json"
    if not path.exists() or (workload == "fleet_locate" and seed != DEFAULT_SEED):
        return None
    with open(path) as f:
        return json.load(f)


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------
def per_layer(plain: dict, traced: dict) -> dict:
    """The traced run's per-layer metrics and the cost of tracing."""
    layers = dict(traced["layers"])
    layers["ndft.operator_builds"] = traced["operator_builds_measured"]
    layers["ndft.operator_builds_setup"] = traced["operator_builds_setup"]
    cpu_plain, cpu_traced = (serve["cpu_s"] / len(serve["ops"]) for serve in (plain, traced))
    layers["bench.trace_overhead_frac"] = cpu_traced / cpu_plain - 1.0
    return layers


def run(args) -> int:
    bench = Run(args)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        bench.prepare()
        if args.trace:
            # An untraced and a traced serving process of the same ops,
            # half of the time each.
            seconds = args.seconds / 2
            plain = bench.child("untraced", seconds)
            reported = bench.child("traced", seconds, "--trace")
            serves = [plain, reported]
        else:
            setups = [
                bench.child(f"setup{k}", 0, "--setup-only")["setup_s"]
                for k in range(SETUPS - 1)
            ]
            plain = reported = bench.child("serve", args.seconds)
            setups.append(plain["setup_s"])
            serves = [plain]
        golden = load_golden(args.workload, args.seed)
        problems = []
        for serve in serves:
            problems += check(args.workload, args.seed, serve, golden)
        if args.trace:
            values = per_layer(plain, reported)
            problems += accounting_problems(args.workload, reported)
            wanted = declared["per_layer"]
            samples = {m["name"]: f"{len(reported['ops'])} traced ops" for m in wanted}
        else:
            values, samples = end_to_end(args.workload, plain, setups)
            wanted = declared["end_to_end"]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        bench.cleanup()

    if args.write_golden:
        if args.seed != DEFAULT_SEED:
            print(f"golden answers are recorded at the default seed {DEFAULT_SEED} only",
                  file=sys.stderr)
            return 2
        write_golden(args.workload, golden_of(args.workload, plain))

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print(f"blas {plain['blas']} (1 thread)  nproc {os.cpu_count()}  "
          f"revision {source_revision()}")
    if args.trace:
        for layer, self_s in sorted(reported["accounting"]["self_s_per_op"].items()):
            print(f"  self time per op  {layer:<14} {self_s:.6f} s")
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in wanted}
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit:<6} ({samples[name]})")
    for problem in problems:
        print(f"INCORRECT: {problem}")
    ops = reported["ops"]
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": len(ops),
                "failed": sum(1 for op in ops if not op["ok"]),
                "metrics": {
                    name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument(
        "--workload",
        required=True,
        choices=sorted(REQUIRED_LAYERS),
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--write-golden",
        action="store_true",
        help="record this run's answers as the default seed's golden answers",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
