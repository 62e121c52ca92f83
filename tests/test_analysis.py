"""The repo-native static-analysis engine (REP001–REP004, REP006, REP007) and its CLI.

Every rule is pinned with at least one violating and one clean fixture
snippet, suppression (``# noqa: REPxxx``) is honored, the CLI exit-code
contract (0 clean / 1 findings / 2 usage error) is exercised end to
end, and — the gate that matters — the shipped ``src`` tree itself
checks clean.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import check_paths
from repro.analysis.cli import main as cli_main
from repro.analysis.engine import SourceFile
from repro.analysis.rules import ALL_CHECKERS

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"


def _check_snippet(tmp_path: Path, code: str, *, name="snippet.py", select=None):
    """Run the engine over one fixture snippet; returns diagnostics."""
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(code))
    return check_paths([path], select=select)


def _codes(diagnostics):
    return [d.code for d in diagnostics]


class TestRep001BlockingInAsync:
    def test_flags_time_sleep_and_solves(self, tmp_path):
        diags = _check_snippet(
            tmp_path,
            """
            import time

            async def flush(self, engine, requests):
                time.sleep(0.01)
                return engine.estimate_products_batch(requests)
            """,
            select=["REP001"],
        )
        assert _codes(diags) == ["REP001", "REP001"]

    def test_flags_future_result_and_lock_acquire(self, tmp_path):
        diags = _check_snippet(
            tmp_path,
            """
            async def collect(fut, lock):
                lock.acquire()
                return fut.result()
            """,
            select=["REP001"],
        )
        assert _codes(diags) == ["REP001", "REP001"]

    def test_clean_offloaded_flush(self, tmp_path):
        diags = _check_snippet(
            tmp_path,
            """
            import asyncio

            async def flush(self, executor, solver, requests):
                loop = asyncio.get_running_loop()
                await asyncio.sleep(0.01)
                return await loop.run_in_executor(executor, solver, requests)
            """,
            select=["REP001"],
        )
        assert diags == []

    def test_sync_helpers_and_nested_defs_exempt(self, tmp_path):
        diags = _check_snippet(
            tmp_path,
            """
            import time

            def worker(engine, requests):
                time.sleep(0.01)
                return engine.estimate_products_batch(requests)

            async def outer(engine):
                def inline(requests):
                    return engine.estimate_products_batch(requests)
                return inline
            """,
            select=["REP001"],
        )
        assert diags == []


class TestRep002GuardedState:
    VIOLATING = """
    import threading

    _LOCK = threading.Lock()
    _hits = 0  # guarded-by: _LOCK

    def bump():
        global _hits
        _hits += 1
    """

    CLEAN = """
    import threading

    _LOCK = threading.Lock()
    _hits = 0  # guarded-by: _LOCK

    def bump():
        global _hits
        with _LOCK:
            _hits += 1
    """

    def test_unguarded_module_write_flagged(self, tmp_path):
        diags = _check_snippet(tmp_path, self.VIOLATING, select=["REP002"])
        assert _codes(diags) == ["REP002"]
        assert "_LOCK" in diags[0].message

    def test_guarded_write_clean(self, tmp_path):
        assert _check_snippet(tmp_path, self.CLEAN, select=["REP002"]) == []

    def test_instance_attribute_guard(self, tmp_path):
        diags = _check_snippet(
            tmp_path,
            """
            import threading

            class Pool:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._slots = {}  # guarded-by: self._lock

                def pin(self, key, slot):
                    self._slots[key] = slot

                def pin_locked(self, key, slot):
                    with self._lock:
                        self._slots[key] = slot
            """,
            select=["REP002"],
        )
        assert _codes(diags) == ["REP002"]
        assert "self._slots" in diags[0].message

    def test_init_writes_exempt(self, tmp_path):
        diags = _check_snippet(
            tmp_path,
            """
            import threading

            class Pool:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._slots = {}  # guarded-by: self._lock
            """,
            select=["REP002"],
        )
        assert diags == []


class TestRep003FrozenRequests:
    def test_mutable_request_flagged(self, tmp_path):
        diags = _check_snippet(
            tmp_path,
            """
            from dataclasses import dataclass

            @dataclass
            class SweepRequest:
                link_id: str
            """,
            select=["REP003"],
        )
        assert _codes(diags) == ["REP003"]

    def test_plain_class_config_flagged(self, tmp_path):
        diags = _check_snippet(
            tmp_path,
            """
            class StreamConfig:
                max_wait_s = 2e-3
            """,
            select=["REP003"],
        )
        assert _codes(diags) == ["REP003"]

    def test_frozen_request_clean(self, tmp_path):
        diags = _check_snippet(
            tmp_path,
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class RangingRequest:
                link_id: str

            @dataclass(frozen=True)
            class RangingResponse:
                link_id: str
            """,
            select=["REP003"],
        )
        assert diags == []

    def test_protocol_and_enum_exempt(self, tmp_path):
        diags = _check_snippet(
            tmp_path,
            """
            from enum import Enum
            from typing import Protocol

            class SolverConfig(Protocol):
                def solve(self): ...

            class ModeConfig(Enum):
                FAST = 1
            """,
            select=["REP003"],
        )
        assert diags == []


class TestRep004UnitSuffix:
    def test_suffixless_float_param_flagged_in_core(self, tmp_path):
        diags = _check_snippet(
            tmp_path,
            """
            def polish(tau: float, window_s: float) -> float:
                return tau + window_s
            """,
            name="core/polish.py",
            select=["REP004"],
        )
        assert _codes(diags) == ["REP004"]
        assert "'tau'" in diags[0].message

    def test_suffixless_field_flagged_in_rf(self, tmp_path):
        diags = _check_snippet(
            tmp_path,
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class PathConfig:
                spread: float = 0.0
                delay_s: float = 0.0
            """,
            name="rf/paths.py",
            select=["REP004"],
        )
        assert _codes(diags) == ["REP004"]
        assert "spread" in diags[0].message

    def test_unit_suffixes_and_dimensionless_families_clean(self, tmp_path):
        diags = _check_snippet(
            tmp_path,
            """
            def mix(
                tau_s: float,
                distance_m: float,
                snr_db: float,
                phase_rad: float,
                residual_rel: float,
                oscillator_ppm: float,
                amplitude: float,
                db: float,
            ) -> float:
                return tau_s
            """,
            name="wifi/mix.py",
            select=["REP004"],
        )
        assert diags == []

    def test_out_of_scope_packages_exempt(self, tmp_path):
        diags = _check_snippet(
            tmp_path,
            """
            def helper(spread: float) -> float:
                return spread
            """,
            name="loc/helper.py",
            select=["REP004"],
        )
        assert diags == []


class TestRep006NdarrayContract:
    def test_bare_param_and_return_flagged_in_core(self, tmp_path):
        diags = _check_snippet(
            tmp_path,
            """
            import numpy as np

            def solve(channels: np.ndarray, alpha: float) -> np.ndarray:
                return channels * alpha
            """,
            name="core/solver.py",
            select=["REP006"],
        )
        assert _codes(diags) == ["REP006", "REP006"]
        messages = " / ".join(d.message for d in diags)
        assert "channels" in messages
        assert "returns bare" in messages

    def test_bare_ndarray_inside_union_flagged(self, tmp_path):
        diags = _check_snippet(
            tmp_path,
            """
            import numpy as np

            def seed(prior: np.ndarray | None) -> None:
                pass
            """,
            name="rf/seed.py",
            select=["REP006"],
        )
        assert _codes(diags) == ["REP006"]

    def test_string_annotation_flagged(self, tmp_path):
        diags = _check_snippet(
            tmp_path,
            """
            def solve(channels: "np.ndarray") -> None:
                pass
            """,
            name="wifi/solver.py",
            select=["REP006"],
        )
        assert _codes(diags) == ["REP006"]

    def test_subscripted_alias_clean(self, tmp_path):
        diags = _check_snippet(
            tmp_path,
            """
            import numpy as np
            from numpy.typing import NDArray

            ComplexCSI = NDArray[np.complex128]

            def solve(channels: ComplexCSI) -> NDArray[np.float64]:
                return abs(channels)
            """,
            name="core/solver.py",
            select=["REP006"],
        )
        assert diags == []

    def test_shaped_decorator_exempts(self, tmp_path):
        diags = _check_snippet(
            tmp_path,
            """
            import numpy as np
            from repro.analysis.contracts import shaped

            @shaped("(n,) complex128")
            def solve(channels: np.ndarray) -> np.ndarray:
                return channels
            """,
            name="core/solver.py",
            select=["REP006"],
        )
        assert diags == []

    def test_private_functions_and_other_packages_exempt(self, tmp_path):
        code = """
            import numpy as np

            def _helper(x: np.ndarray) -> np.ndarray:
                return x
            """
        assert (
            _check_snippet(
                tmp_path, code, name="core/mod.py", select=["REP006"]
            )
            == []
        )
        public = """
            import numpy as np

            def render(x: np.ndarray) -> None:
                pass
            """
        assert (
            _check_snippet(
                tmp_path, public, name="figures/plot.py", select=["REP006"]
            )
            == []
        )


class TestRep007UnusedNoqa:
    def test_stale_suppression_flagged(self, tmp_path):
        diags = _check_snippet(
            tmp_path,
            """
            x = 1  # noqa: REP001
            """,
            select=["REP007"],
        )
        assert _codes(diags) == ["REP007"]
        assert "REP001" in diags[0].message

    def test_live_suppression_clean(self, tmp_path):
        diags = _check_snippet(
            tmp_path,
            """
            import time

            async def flush():
                time.sleep(0.01)  # noqa: REP001
            """,
            select=["REP007"],
        )
        assert diags == []

    def test_select_narrowing_cannot_fake_staleness(self, tmp_path):
        """REP007 re-runs all rules internally, ignoring --select."""
        diags = _check_snippet(
            tmp_path,
            """
            import time

            async def flush():
                time.sleep(0.01)  # noqa: REP001
            x = 1  # noqa: REP002
            """,
            select=["REP007"],
        )
        assert _codes(diags) == ["REP007"]
        assert "REP002" in diags[0].message

    def test_foreign_codes_and_blanket_noqa_ignored(self, tmp_path):
        diags = _check_snippet(
            tmp_path,
            """
            pairs = list(zip([1], [2]))  # noqa: B905
            x = 1  # noqa
            """,
            select=["REP007"],
        )
        assert diags == []


class TestSuppression:
    def test_noqa_with_code_suppresses(self, tmp_path):
        diags = _check_snippet(
            tmp_path,
            """
            import time

            async def flush():
                time.sleep(0.01)  # noqa: REP001
            """,
            select=["REP001"],
        )
        assert diags == []

    def test_bare_noqa_suppresses_everything(self, tmp_path):
        diags = _check_snippet(
            tmp_path,
            """
            import time

            async def flush():
                time.sleep(0.01)  # noqa
            """,
        )
        assert diags == []

    def test_wrong_code_does_not_suppress(self, tmp_path):
        diags = _check_snippet(
            tmp_path,
            """
            import time

            async def flush():
                time.sleep(0.01)  # noqa: REP003
            """,
            select=["REP001"],
        )
        assert _codes(diags) == ["REP001"]


class TestEngine:
    def test_syntax_error_reported_as_rep000(self, tmp_path):
        diags = _check_snippet(tmp_path, "def broken(:\n")
        assert _codes(diags) == ["REP000"]

    def test_unknown_select_raises(self, tmp_path):
        (tmp_path / "m.py").write_text("x = 1\n")
        with pytest.raises(ValueError, match="REP999"):
            check_paths([tmp_path], select=["REP999"])

    def test_diagnostics_sorted_and_formatted(self, tmp_path):
        diags = _check_snippet(
            tmp_path,
            """
            import time

            async def b():
                time.sleep(1)

            async def a():
                time.sleep(2)
            """,
            select=["REP001"],
        )
        assert [d.line for d in diags] == sorted(d.line for d in diags)
        formatted = diags[0].format()
        assert "REP001" in formatted
        assert formatted.startswith(f"{diags[0].path}:{diags[0].line}:")

    def test_every_checker_registered_once(self):
        codes = [c.code for c in ALL_CHECKERS]
        assert codes == sorted(codes)
        assert len(set(codes)) == len(codes) == 6

    def test_source_file_parse_indexes_comments_not_strings(self, tmp_path):
        path = tmp_path / "s.py"
        path.write_text('x = "# noqa: REP001"\ny = 1  # noqa: REP002\n')
        source = SourceFile.parse(path, path.read_text())
        assert 1 not in source.noqa
        assert source.noqa[2] == frozenset({"REP002"})


class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "clean.py").write_text("x = 1\n")
        assert cli_main(["check", str(tmp_path)]) == 0
        assert capsys.readouterr().out == ""

    def test_exit_one_with_findings_and_summary(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "import time\n\nasync def f():\n    time.sleep(1)\n"
        )
        assert cli_main(["check", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "REP001" in out
        assert out.strip().endswith("Found 1 error.")

    def test_exit_two_on_missing_path(self, tmp_path, capsys):
        assert cli_main(["check", str(tmp_path / "nope")]) == 2

    def test_exit_two_on_unknown_rule(self, tmp_path, capsys):
        (tmp_path / "m.py").write_text("x = 1\n")
        assert cli_main(["check", "--select", "REP999", str(tmp_path)]) == 2

    def test_select_restricts_rules(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "import time\n\nasync def f():\n    time.sleep(1)\n"
        )
        assert cli_main(["check", "--select", "REP003", str(tmp_path)]) == 0

    def test_list_rules(self, capsys):
        assert cli_main(["check", "--list-rules", "."]) == 0
        out = capsys.readouterr().out
        for code in (
            "REP001",
            "REP002",
            "REP003",
            "REP004",
            "REP006",
            "REP007",
        ):
            assert code in out

    def test_module_entry_point(self, tmp_path):
        """``python -m repro.analysis check`` — the exact CI invocation."""
        (tmp_path / "clean.py").write_text("x = 1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "check", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr


class TestShippedTree:
    def test_src_tree_is_clean(self):
        """The gate CI enforces: the shipped package passes its own rules."""
        diagnostics = check_paths([SRC_ROOT])
        assert diagnostics == [], "\n".join(d.format() for d in diagnostics)
