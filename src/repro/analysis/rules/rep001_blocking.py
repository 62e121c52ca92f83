"""REP001 — blocking calls inside ``async def``.

The streaming and localization layers run on a single asyncio event
loop; one blocking call inside a coroutine stalls every coalescing
window, timer and caller on that loop.  The engine's solves are GEMMs
that run for milliseconds-to-seconds — they must reach the loop only
through an executor (a flush or solve worker), never called directly
from a coroutine.

Flagged inside ``async def`` bodies (nested ``def``/``async def``
bodies are scanned on their own — a nested sync helper may well be
dispatched to an executor):

* ``time.sleep(...)`` — use ``await asyncio.sleep(...)``.
* a non-awaited ``<expr>.result()`` with no arguments —
  ``concurrent.futures.Future.result`` blocks the loop; await the
  wrapped future instead.
* a non-awaited ``<expr>.acquire(...)`` — ``threading.Lock.acquire``
  blocks; use ``asyncio.Lock`` or keep the lock on executor threads.
* a direct engine/service solve (:data:`BLOCKING_SOLVE_NAMES`) — the
  synchronous batch entry points of ``BatchTofEngine``,
  ``RangingService`` and the position solvers.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Diagnostic, SourceFile, dotted_path

#: Synchronous solve entry points that must stay off the event loop.
#: ``submit`` itself is deliberately absent: ``RangingService.submit``
#: (sync) and ``StreamingRangingService.submit`` (async) share the
#: name, and the async one is exactly what coroutines should call.
BLOCKING_SOLVE_NAMES = frozenset(
    {
        "submit_grouped",
        "estimate_products_batch",
        "estimate_sweeps_batch",
        "estimate_from_products",
        "estimate_from_sweeps",
        "measure_tof",
        "measure_tof_batch",
        "locate_transmitter",
        "locate_transmitter_batch",
    }
)


def _called_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


class BlockingCallChecker:
    """REP001: no blocking work on the event loop."""

    code = "REP001"
    name = "blocking-call-in-async"

    def check(self, source: SourceFile) -> Iterator[Diagnostic]:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield from self._check_async_def(source, node)

    def _check_async_def(
        self, source: SourceFile, func: ast.AsyncFunctionDef
    ) -> Iterator[Diagnostic]:
        calls: list[ast.Call] = []
        awaited: set[int] = set()
        stack: list[ast.AST] = list(func.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # separate execution context; scanned on its own
            if isinstance(node, ast.Await) and isinstance(node.value, ast.Call):
                awaited.add(id(node.value))
            if isinstance(node, ast.Call):
                calls.append(node)
            stack.extend(ast.iter_child_nodes(node))
        for call in calls:
            finding = self._check_call(source, func, call, id(call) in awaited)
            if finding is not None:
                yield finding

    def _check_call(
        self,
        source: SourceFile,
        func: ast.AsyncFunctionDef,
        call: ast.Call,
        is_awaited: bool,
    ) -> Diagnostic | None:
        name = _called_name(call.func)
        if name is None:
            return None
        where = f"in 'async def {func.name}'"
        if dotted_path(call.func) == ("time", "sleep"):
            return source.diag(
                call,
                self.code,
                f"time.sleep() blocks the event loop {where}; "
                "use 'await asyncio.sleep(...)'",
            )
        if name in BLOCKING_SOLVE_NAMES:
            return source.diag(
                call,
                self.code,
                f"synchronous solve '{name}()' called {where}; route it "
                "through loop.run_in_executor(...) so the engine GEMM "
                "cannot stall the loop",
            )
        if is_awaited or not isinstance(call.func, ast.Attribute):
            return None
        if name == "result" and not call.args and not call.keywords:
            return source.diag(
                call,
                self.code,
                f"Future.result() blocks the event loop {where}; "
                "await the future (or wrap it with asyncio.wrap_future)",
            )
        if name == "acquire":
            return source.diag(
                call,
                self.code,
                f"Lock.acquire() blocks the event loop {where}; use "
                "asyncio.Lock or keep the lock on executor threads",
            )
        return None
