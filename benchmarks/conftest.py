"""Benchmark configuration.

Each benchmark regenerates one paper figure and prints the
paper-vs-measured comparison.  The experiments are heavy Monte-Carlo
runs, so every benchmark executes exactly once (rounds=1) — the timing
pytest-benchmark records is the figure's end-to-end regeneration cost.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.testbed import office_testbed


def pytest_collection_modifyitems(items):
    """Mark every test under ``benchmarks/`` as ``bench``.

    The CI test matrix runs ``-m "not bench and not slow"``; the nightly
    benchmark job runs ``-m bench``.
    (This hook sees the whole session's items, so filter by location —
    a root-level run must not mark the unit tests.)
    """
    bench_dir = Path(__file__).resolve().parent
    for item in items:
        if Path(item.path).is_relative_to(bench_dir):
            item.add_marker(pytest.mark.bench)


@pytest.fixture(scope="session")
def testbed():
    """One shared office floor for all figure benchmarks."""
    return office_testbed()


def run_once(benchmark, fn, *args, **kwargs):
    """Run a figure driver exactly once under the benchmark harness."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
