"""Smoke test of the benchmark itself: tiny runs of every workload.

    python3 perfbench/smoke.py

For each workload it makes one short untraced run and one short traced
run and checks that the result line names every metric of
``BENCHMARK.json`` with its unit, that the report lines before it give
each metric with its unit and a sample count, and that the answers pass
the correctness check; then a second seed runs end to end.  Exits
non-zero on the first failure.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "3"


def run(workload: str, seed: int, trace: int) -> tuple[dict, list[str]]:
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", SECONDS,
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(
            f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}"
        )
    return json.loads(lines[-1]), lines[:-1]


def check(result: dict, report: list[str], wanted: list[dict], label: str) -> None:
    assert result["correct"] is True, f"{label}: answers failed the check"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["attempted"] >= 1 and result["failed"] == 0, label
    assert set(result["metrics"]) == {m["name"] for m in wanted}, (
        f"{label}: metrics {sorted(result['metrics'])}"
    )
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], f"{label}: {metric['name']} unit"
        assert isinstance(got["value"], float), f"{label}: {metric['name']} value"
        pattern = (
            rf"^\s+{re.escape(metric['name'])}\s+\S+\s+"
            rf"{re.escape(metric['unit'])}\s+\(\d+ [^)]*\)$"
        )
        assert any(re.match(pattern, line) for line in report), (
            f"{label}: no report line with unit and sample count for {metric['name']}"
        )


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            label = f"{workload} trace={trace}"
            check(*run(workload, 1, trace), wanted, label)
            print(f"ok  {label}")
        check(*run(workload, 2, 0), bench["end_to_end"], f"{workload} seed=2")
        print(f"ok  {workload} seed=2")
    return 0


if __name__ == "__main__":
    sys.exit(main())
