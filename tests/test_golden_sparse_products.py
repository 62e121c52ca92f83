"""Golden answers: ToF of 128 sparse fleet-like product links, recorded once.

``tests/golden/sparse_products_tof.txt`` holds the ToF that
:meth:`BatchTofEngine.estimate_products_batch` produced for the rows of
:func:`fleet_like_rows` when it was recorded.  The rows follow the fleet
deployment's channel model on the 24-band 5 GHz plan: a direct path, a
0.35 bounce 30 ns later and 0.03 complex noise, with one row in eight
body-blocked (0.1 of that channel plus a 2.0 bounce 25–60 ns late).
These sparse channels are where greedy deflation stops long before its
atom budget, unlike the rich-multipath testbed pinned by
``test_golden_testbed.py``; a change to the extractor's stopping rule
is checked against these answers.

Regenerate the file only for a deliberate change of answers:
``PYTHONPATH=src python tests/test_golden_sparse_products.py``.
"""

from pathlib import Path

import numpy as np

from repro.core import BatchTofEngine, TofEstimator, TofEstimatorConfig
from repro.core.ndft import steering_vector
from repro.rf.constants import SPEED_OF_LIGHT
from repro.wifi.bands import US_BAND_PLAN

GOLDEN = Path(__file__).parent / "golden" / "sparse_products_tof.txt"

# ROADMAP tolerance for ToF drift between two versions of the stack.
TOF_TOLERANCE_S = 1e-12

FREQS = US_BAND_PLAN.subset_5g().center_frequencies_hz
N_ROWS = 128
SEED = 18
# Rows re-solved through the scalar estimator: four plain, four blocked.
SCALAR_ROWS = (0, 7, 40, 47, 80, 87, 120, 127)


def fleet_like_rows() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(blocked, true_tof_s, products)`` of the seeded fleet-like rows."""
    rng = np.random.default_rng(SEED)
    blocked = np.arange(N_ROWS) % 8 == 7
    true_tof_s = rng.uniform(1.0, 15.0, N_ROWS) / SPEED_OF_LIGHT
    rows = []
    for tof_s, is_blocked in zip(true_tof_s, blocked, strict=True):
        tau2 = 2.0 * tof_s
        h = steering_vector(FREQS, tau2) + 0.35 * steering_vector(
            FREQS, tau2 + 30e-9
        )
        if is_blocked:
            h = 0.1 * h + 2.0 * steering_vector(
                FREQS, tau2 + rng.uniform(25e-9, 60e-9)
            )
        h = h + 0.03 * (
            rng.normal(size=len(FREQS)) + 1j * rng.normal(size=len(FREQS))
        )
        rows.append(h)
    return blocked, true_tof_s, np.vstack(rows)


def test_sparse_products_tof_matches_golden():
    golden = np.loadtxt(GOLDEN, ndmin=2)
    blocked, true_tof_s, products = fleet_like_rows()
    assert len(golden) == N_ROWS
    config = TofEstimatorConfig()
    batch = BatchTofEngine(config).estimate_products_batch(FREQS, products)
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
        estimate = scalar.estimate_from_products(FREQS, products[i])
        assert abs(estimate.tof_s - golden[i, 3]) <= TOF_TOLERANCE_S, (
            f"scalar row {i}: ToF {estimate.tof_s!r} s, golden {golden[i, 3]!r} s"
        )


def record() -> None:
    """Write the golden file from the current engine's answers."""
    blocked, true_tof_s, products = fleet_like_rows()
    batch = BatchTofEngine(TofEstimatorConfig()).estimate_products_batch(
        FREQS, products
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
    GOLDEN.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    record()
