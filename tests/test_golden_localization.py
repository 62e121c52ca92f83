"""Golden answers: §8 position fixes of 220 seeded circle systems, recorded once.

The golden file holds what
:func:`~repro.core.localization_batch.locate_transmitter_batch` returned
for the systems of :func:`layout_systems` when it was recorded, one
stacked call per layout.  Four layouts cover the solver's branches:

* ``rect``: the 10 × 8 m rectangle of four anchors.  One fix in four
  carries a ghosted range 12–25 m too long, which the §12.2 geometry
  filter drops, and one in three a position hint near the target.
* ``triangle``: three anchors around a 8 × 6 m area, with a ghosted
  range on one fix in five and a hint on one in four.
* ``pair``: two anchors, so every fix has mirror candidates across their
  axis.  Targets lie on both sides and one fix in three is hinted, so
  the hint picks either candidate.  One fix in ten has ranges too far apart
  for the circles to meet, which takes the radius-weighted fallback seed.
* ``line``: three colinear anchors, targets on both sides.  Every fix
  is flagged colinear; one in three is hinted and one in six ghosted.

Two checks, per layout:

* the stacked solve matches the file within 1e-9 m, with the same used
  indices, drop ``(index, against)`` pairs, colinear flags and
  candidate counts;
* every one-client :func:`~repro.core.localization.locate_transmitter`
  call returns its stack row, position within 1e-12 m.

Regenerate the file only for a deliberate change of answers:
``PYTHONPATH=src python tests/test_golden_localization.py``.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core import LocalizationResult, locate_transmitter, locate_transmitter_batch
from repro.rf.geometry import Point

GOLDEN_FILE = Path(__file__).parent / "golden" / "localization_fixes.txt"

# Drift allowed between the stack and the recorded answers, and between a
# one-client call and its stack row.
FIXTURE_TOLERANCE_M = 1e-9
ONE_CLIENT_TOLERANCE_M = 1e-12

SEED = 23

# name -> (anchors, fixes, target box (x0, x1, y0, y1), mirror the target
# across y = 0 on odd fixes, range noise sigma, ghost every, hint every)
LAYOUTS = {
    "rect": (
        (Point(0.0, 0.0), Point(10.0, 0.0), Point(10.0, 8.0), Point(0.0, 8.0)),
        80, (0.5, 9.5, 0.5, 7.5), False, 0.05, 4, 3,
    ),
    "triangle": (
        (Point(0.0, 0.0), Point(8.0, 0.0), Point(3.0, 6.0)),
        60, (0.5, 7.5, 0.5, 5.5), False, 0.05, 5, 4,
    ),
    "pair": (
        (Point(0.0, 0.0), Point(4.0, 0.0)),
        40, (-1.0, 5.0, 0.5, 5.0), True, 0.02, 0, 3,
    ),
    "line": (
        (Point(0.0, 0.0), Point(3.0, 0.0), Point(7.0, 0.0)),
        40, (0.0, 7.0, 0.5, 4.0), True, 0.03, 6, 3,
    ),
}


def layout_systems(
    name: str,
) -> tuple[tuple[Point, ...], np.ndarray, np.ndarray, list[Point | None]]:
    """``(anchors, targets, distances, hints)`` of one layout's fixes."""
    anchors, n_fixes, box, mirror, sigma, ghost_every, hint_every = LAYOUTS[name]
    rng = np.random.default_rng([SEED, list(LAYOUTS).index(name)])
    x0, x1, y0, y1 = box
    targets = np.column_stack(
        [rng.uniform(x0, x1, n_fixes), rng.uniform(y0, y1, n_fixes)]
    )
    if mirror:
        targets[1::2, 1] *= -1.0
    anchor_xy = np.array([[a.x, a.y] for a in anchors])
    distances = np.hypot(
        targets[:, None, 0] - anchor_xy[None, :, 0],
        targets[:, None, 1] - anchor_xy[None, :, 1],
    ) + rng.normal(0.0, sigma, (n_fixes, len(anchors)))
    hints: list[Point | None] = []
    for n in range(n_fixes):
        if ghost_every and n % ghost_every == 0:
            distances[n, rng.integers(len(anchors))] += rng.uniform(12.0, 25.0)
        if name == "pair" and n % 10 == 9:
            distances[n, 1] = distances[n, 0] + 6.0  # circles cannot meet
        tx, ty = targets[n]
        hints.append(Point(tx + 0.3, ty - 0.2) if n % hint_every == 0 else None)
    return anchors, targets, np.abs(distances), hints


def fix_line(name: str, n: int, target: np.ndarray, fix: LocalizationResult) -> str:
    """One golden-file line for fix ``n`` of layout ``name``."""
    used = ",".join(str(i) for i in fix.used_indices)
    drops = ",".join(f"{d.index}:{d.against}" for d in fix.geometry_drops) or "-"
    return (
        f"{name} {n} {float(target[0])!r} {float(target[1])!r} "
        f"{fix.position.x!r} {fix.position.y!r} {fix.residual_rms_m!r} "
        f"{int(fix.anchors_colinear)} {len(fix.candidates)} {used} {drops}"
    )


def golden_rows() -> dict[str, list[list[str]]]:
    """The golden file's fields, grouped by layout."""
    rows: dict[str, list[list[str]]] = {name: [] for name in LAYOUTS}
    for line in GOLDEN_FILE.read_text().splitlines():
        if line and not line.startswith("#"):
            fields = line.split()
            rows[fields[0]].append(fields)
    return rows


@pytest.mark.parametrize("name", list(LAYOUTS))
def test_stacked_fixes_match_golden(name):
    anchors, targets, distances, hints = layout_systems(name)
    stack = locate_transmitter_batch(anchors, distances, position_hints=hints)
    golden = golden_rows()[name]
    assert len(golden) == len(stack)
    for fields, target, fix in zip(golden, targets, stack, strict=True):
        n = int(fields[1])
        assert (float(fields[2]), float(fields[3])) == tuple(target), f"{name} {n}"
        want = Point(float(fields[4]), float(fields[5]))
        assert fix.position.distance_to(want) <= FIXTURE_TOLERANCE_M, (
            f"{name} {n}: fix {fix.position}, golden {want}"
        )
        assert abs(fix.residual_rms_m - float(fields[6])) <= FIXTURE_TOLERANCE_M
        assert fix.anchors_colinear == bool(int(fields[7])), f"{name} {n}"
        assert len(fix.candidates) == int(fields[8]), f"{name} {n}"
        assert fix_line(name, n, target, fix).split()[9:] == fields[9:], (
            f"{name} {n}: used indices or drops differ"
        )


@pytest.mark.parametrize("name", list(LAYOUTS))
def test_one_client_call_is_its_stack_row(name):
    anchors, _, distances, hints = layout_systems(name)
    stack = locate_transmitter_batch(anchors, distances, position_hints=hints)
    for n, (row, hint, fix) in enumerate(
        zip(distances, hints, stack, strict=True)
    ):
        alone = locate_transmitter(anchors, list(row), position_hint=hint)
        assert alone.position.distance_to(fix.position) <= ONE_CLIENT_TOLERANCE_M, (
            f"{name} {n}: alone {alone.position}, stacked {fix.position}"
        )
        assert alone.used_indices == fix.used_indices, f"{name} {n}"
        assert alone.geometry_drops == fix.geometry_drops, f"{name} {n}"
        assert alone.anchors_colinear == fix.anchors_colinear, f"{name} {n}"
        assert len(alone.candidates) == len(fix.candidates), f"{name} {n}"


def record() -> None:
    """Write the golden file from the current batch solver's answers."""
    lines = [
        "# locate_transmitter_batch on the seeded systems of",
        "# tests/test_golden_localization.py, one stacked call per layout.",
        "# Columns: layout, fix, true x, true y (m), fix x, fix y (m), residual RMS (m),",
        "# colinear (1/0), candidate count, used indices, drops as index:against (- for none).",
    ]
    for name in LAYOUTS:
        anchors, targets, distances, hints = layout_systems(name)
        stack = locate_transmitter_batch(anchors, distances, position_hints=hints)
        lines += [
            fix_line(name, n, target, fix)
            for n, (target, fix) in enumerate(zip(targets, stack, strict=True))
        ]
    GOLDEN_FILE.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    record()
