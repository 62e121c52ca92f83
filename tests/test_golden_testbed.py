"""Golden answers: calibrated ToF of 80 testbed pairs, recorded once.

``tests/golden/testbed_tof_seed11.txt`` holds the ToF that
``run_tof_experiment(80, seed=11)`` produced when it was recorded, with
all 80 pairs solved in one batched-engine call.  The pairs span
line-of-sight and blocked placements in the Fig. 6 office, whose rich
multipath exercises both band groups, the coarse slope gate and the
per-pair calibration sweeps; each pair's calibration sweeps are solved
alone, through the one-link ``TofEstimator`` call.  A refactor of the
front end or the engine is checked against these answers, not against
another copy of the code it changes.
"""

from pathlib import Path

import numpy as np

from repro.experiments.runner import run_tof_experiment

GOLDEN = Path(__file__).parent / "golden" / "testbed_tof_seed11.txt"

# ROADMAP tolerance for ToF drift between two versions of the stack.
TOF_TOLERANCE_S = 1e-12


def test_testbed_tof_matches_golden():
    golden = np.loadtxt(GOLDEN, ndmin=2)
    samples = run_tof_experiment(len(golden), seed=11)
    assert len(samples) == len(golden)
    for (pair, los, true_tof_s, tof_s), sample in zip(golden, samples, strict=True):
        assert sample.line_of_sight == bool(los), f"pair {int(pair)}"
        assert sample.true_tof_s == true_tof_s, f"pair {int(pair)}"
        assert abs(sample.estimated_tof_s - tof_s) <= TOF_TOLERANCE_S, (
            f"pair {int(pair)}: ToF {sample.estimated_tof_s!r} s, "
            f"golden {tof_s!r} s"
        )
