"""Repository-wide pytest plumbing: the per-test hang guard.

The streaming/localization layers resolve caller futures from flush
workers; a bookkeeping bug there (e.g. the pre-fix ``_resolve`` zip
that dropped unmatched tails) turns into a test that ``await``s
forever — which used to wedge the whole CI job until the runner's
6-hour kill.  This guard makes such bugs *fail fast* instead: every
test arms a watchdog timer, and a test that exceeds the (generous)
ceiling gets every thread's traceback dumped to the real stderr and
the process hard-exited with a non-zero status.

Stdlib-only on purpose — it must work in the bare container as well
as CI, so it does not depend on ``pytest-timeout`` being installed.
(The capture dance below is the same one pytest-timeout does: pytest
redirects the stderr *file descriptor* during tests, so the watchdog
must suspend global capture before writing, or the dump dies with the
process inside a capture temp file.)

The ceiling is per *test* and deliberately far above anything the
suite legitimately does (tier-1 ran 787 tests in about 3.5 min on 2
vCPUs; the slowest single test, the fig 8c benchmark, about 1 min).  Override with
``REPRO_TEST_TIMEOUT_S`` (``0`` disables, e.g. when stepping through
a test in a debugger).
"""

from __future__ import annotations

import faulthandler
import os
import sys
import threading

import pytest

# The @shaped ndarray contracts gate at decoration time, so the flag
# must be set before any test module imports the numeric core.  This
# conftest is imported first by pytest, making the whole suite run
# with runtime shape/dtype checking on; setdefault keeps an explicit
# REPRO_CHECK_CONTRACTS=0 (e.g. the benchmark lane) authoritative.
os.environ.setdefault("REPRO_CHECK_CONTRACTS", "1")

HANG_GUARD_DEFAULT_S = 600.0


def _hang_guard_timeout_s() -> float:
    raw = os.environ.get("REPRO_TEST_TIMEOUT_S", "")
    try:
        return float(raw) if raw else HANG_GUARD_DEFAULT_S
    except ValueError:
        return HANG_GUARD_DEFAULT_S


@pytest.fixture(autouse=True)
def _hang_guard(request):
    """Dump all thread tracebacks and exit if a single test wedges."""
    timeout_s = _hang_guard_timeout_s()
    if timeout_s <= 0:
        yield
        return
    nodeid = request.node.nodeid
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def _abort() -> None:
        # Restore the real stderr fd before writing: under pytest's
        # default fd-level capture, both sys.stderr and fd 2 point at
        # a capture temp file that os._exit() will discard.
        try:
            if capman is not None:
                capman.suspend_global_capture(in_=True)
        except Exception:  # noqa: BLE001 — a sick capture must not mute the dump
            pass
        stderr = sys.__stderr__ or sys.stderr
        stderr.write(
            f"\n[hang guard] {nodeid} exceeded {timeout_s:.0f}s; "
            "dumping all threads and aborting the run\n"
        )
        stderr.flush()
        faulthandler.dump_traceback(file=stderr)
        stderr.flush()
        os._exit(1)

    watchdog = threading.Timer(timeout_s, _abort)
    watchdog.daemon = True
    watchdog.start()
    try:
        yield
    finally:
        watchdog.cancel()
