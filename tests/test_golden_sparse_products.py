"""Golden answers: ToF of 128 sparse fleet-like product links, recorded once.

Each golden file holds the ToF that
:meth:`BatchTofEngine.estimate_products_batch` produced for the rows of
:func:`fleet_like_rows` on one band plan when it was recorded.  The rows
follow the fleet deployment's channel model: a direct path, a 0.35
bounce 30 ns later and 0.03 complex noise, with one row in eight
body-blocked (0.1 of that channel plus a 2.0 bounce 25–60 ns late).
These sparse channels are where greedy deflation stops long before its
atom budget, unlike the rich-multipath testbed pinned by
``test_golden_testbed.py``; a change to the extractor's stopping rule
is checked against these answers.

Two plans are pinned:

* ``tests/golden/sparse_products_tof.txt``: the 24-band 5 GHz plan,
  whose bands all fit the coarse delay grid;
* ``tests/golden/sparse_products_35band_tof.txt``: the quirk-free
  35-band 2.4 + 5 GHz plan.  Its aperture is too wide for the coarse
  grid, so extraction runs on the 24 5 GHz bands and the full-aperture
  refit runs on every row.

Regenerate the files only for a deliberate change of answers:
``PYTHONPATH=src python tests/test_golden_sparse_products.py``.
"""

from pathlib import Path

import numpy as np

from repro.core import BatchTofEngine, TofEstimator, TofEstimatorConfig
from repro.core.ndft import steering_vector
from repro.rf.constants import SPEED_OF_LIGHT
from repro.wifi.bands import US_BAND_PLAN

GOLDEN_DIR = Path(__file__).parent / "golden"

# ROADMAP tolerance for ToF drift between two versions of the stack.
TOF_TOLERANCE_S = 1e-12

# Plan name -> (band frequencies, golden file).
PLANS = {
    "24band": (
        US_BAND_PLAN.subset_5g().center_frequencies_hz,
        GOLDEN_DIR / "sparse_products_tof.txt",
    ),
    "35band": (
        US_BAND_PLAN.center_frequencies_hz,
        GOLDEN_DIR / "sparse_products_35band_tof.txt",
    ),
}
N_ROWS = 128
SEED = 18
# Rows re-solved through the scalar estimator: four plain, four blocked.
SCALAR_ROWS = (0, 7, 40, 47, 80, 87, 120, 127)


def fleet_like_rows(
    freqs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(blocked, true_tof_s, products)`` of the seeded fleet-like rows."""
    rng = np.random.default_rng(SEED)
    blocked = np.arange(N_ROWS) % 8 == 7
    true_tof_s = rng.uniform(1.0, 15.0, N_ROWS) / SPEED_OF_LIGHT
    rows = []
    for tof_s, is_blocked in zip(true_tof_s, blocked, strict=True):
        tau2 = 2.0 * tof_s
        h = steering_vector(freqs, tau2) + 0.35 * steering_vector(
            freqs, tau2 + 30e-9
        )
        if is_blocked:
            h = 0.1 * h + 2.0 * steering_vector(
                freqs, tau2 + rng.uniform(25e-9, 60e-9)
            )
        h = h + 0.03 * (
            rng.normal(size=len(freqs)) + 1j * rng.normal(size=len(freqs))
        )
        rows.append(h)
    return blocked, true_tof_s, np.vstack(rows)


def check_plan(plan: str) -> None:
    """Solve one plan's rows, stacked and a few alone, against its file."""
    freqs, golden_file = PLANS[plan]
    golden = np.loadtxt(golden_file, ndmin=2)
    blocked, true_tof_s, products = fleet_like_rows(freqs)
    assert len(golden) == N_ROWS
    config = TofEstimatorConfig()
    batch = BatchTofEngine(config).estimate_products_batch(freqs, products)
    for (row, was_blocked, want_true_s, tof_s), estimate in zip(
        golden, batch, strict=True
    ):
        i = int(row)
        assert bool(was_blocked) == blocked[i], f"row {i}"
        assert want_true_s == true_tof_s[i], f"row {i}"
        assert abs(estimate.tof_s - tof_s) <= TOF_TOLERANCE_S, (
            f"row {i}: ToF {estimate.tof_s!r} s, golden {tof_s!r} s"
        )
    scalar = TofEstimator(config)
    for i in SCALAR_ROWS:
        estimate = scalar.estimate_from_products(freqs, products[i])
        assert abs(estimate.tof_s - golden[i, 3]) <= TOF_TOLERANCE_S, (
            f"scalar row {i}: ToF {estimate.tof_s!r} s, golden {golden[i, 3]!r} s"
        )


def test_sparse_products_tof_matches_golden():
    check_plan("24band")


def test_sparse_products_35band_tof_matches_golden():
    check_plan("35band")


def record() -> None:
    """Write every plan's golden file from the current engine's answers."""
    for freqs, golden_file in PLANS.values():
        blocked, true_tof_s, products = fleet_like_rows(freqs)
        batch = BatchTofEngine(TofEstimatorConfig()).estimate_products_batch(
            freqs, products
        )
        lines = [
            "# BatchTofEngine.estimate_products_batch on the fleet-like rows of",
            "# tests/test_golden_sparse_products.py: the ToF of each row, in seconds.",
            "# Columns: row, body-blocked (1/0), true ToF, estimated ToF.",
        ]
        lines += [
            f"{i} {int(blocked[i])} {float(true_tof_s[i])!r} {float(estimate.tof_s)!r}"
            for i, estimate in enumerate(batch)
        ]
        golden_file.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    record()
