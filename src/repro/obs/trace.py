"""Flush-path tracing: contextvar-propagated spans across loop and worker.

One streaming request's life crosses four execution contexts — the
caller's coroutine (``submit``), the event-loop flush callback, the
flush worker thread (the engine solve), and back to the loop
(resolve).  A :class:`Span` names one timed stage of that path; a
trace is the tree of spans sharing a ``trace_id``, and the serving
layers stitch the tree together across context hops:

* **same task / same thread** — ambient propagation: ``span()`` parents
  itself under the contextvar-held current span, and asyncio tasks copy
  the context at creation, so nesting works unannotated;
* **loop → worker thread** (an executor hop does *not* carry
  contextvars) — the dispatching layer captures :func:`current` on the
  loop and passes it as the explicit ``parent=`` of the span it opens
  on the worker;
* **queue time** (no code runs while a request is parked) —
  :func:`record_span` emits a retroactive span from the timestamps the
  queue kept.

Finished spans land in a bounded in-memory ring buffer (oldest evicted
first) and, when configured, as JSON lines in a trace file that
``python -m repro.obs summarize`` tabulates.  Tracing is **off by
default**: a disabled tracer returns a shared no-op span handle from a
single attribute check, so instrumented hot paths stay within the
serving benchmarks' noise floor.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from collections import deque
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path
from types import TracebackType
from typing import IO, Any


@dataclass(frozen=True)
class SpanContext:
    """The portable identity of a live span: what children parent under.

    Capture it with :func:`current` before a context hop the contextvar
    cannot cross (``run_in_executor``), then pass it as ``parent=`` on
    the far side.
    """

    trace_id: str
    span_id: str


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


class Span:
    """One named, timed stage of a trace; mutable until its ``with`` exits."""

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start_wall_s",
        "start_perf_s",
        "duration_s",
        "attrs",
        "thread",
        "error",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        attrs: dict[str, Any],
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_wall_s = time.time()
        self.start_perf_s = time.perf_counter()
        self.duration_s = 0.0
        self.attrs = attrs
        self.thread = threading.current_thread().name
        self.error: str | None = None

    @property
    def context(self) -> SpanContext:
        """This span's identity, for explicit cross-thread parenting."""
        return SpanContext(self.trace_id, self.span_id)

    def set_attr(self, **attrs: Any) -> None:
        """Attach attributes discovered after the span opened."""
        self.attrs.update(attrs)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_wall_s": self.start_wall_s,
            "start_perf_s": self.start_perf_s,
            "duration_s": self.duration_s,
            "thread": self.thread,
            "error": self.error,
            "attrs": self.attrs,
        }


class _NullSpan:
    """The shared do-nothing span a disabled tracer hands out."""

    __slots__ = ()

    context = None

    def set_attr(self, **attrs: Any) -> None:
        pass


class _NullHandle:
    """No-op context manager: the disabled tracer's entire overhead."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        pass


_NULL_SPAN = _NullSpan()
_NULL_HANDLE = _NullHandle()

_UNSET: Any = object()  # "parent not given: use the ambient current span"


class _SpanHandle:
    """Context manager running one :class:`Span` from open to finish."""

    __slots__ = ("_tracer", "_name", "_parent", "_attrs", "_span", "_token")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        parent: SpanContext | None,
        attrs: dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self._name = name
        self._parent = parent
        self._attrs = attrs
        self._span: Span | None = None
        self._token: Any = None

    def __enter__(self) -> Span:
        parent = self._parent
        if parent is _UNSET:
            parent = self._tracer.current()
        if parent is None:
            trace_id, parent_id = _new_id(), None
        else:
            trace_id, parent_id = parent.trace_id, parent.span_id
        span = Span(self._name, trace_id, _new_id(), parent_id, self._attrs)
        self._span = span
        self._token = self._tracer._current.set(span.context)
        return span

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        span = self._span
        if span is None:
            return
        span.duration_s = time.perf_counter() - span.start_perf_s
        if exc_type is not None:
            span.error = f"{exc_type.__name__}: {exc}"
        self._tracer._current.reset(self._token)
        self._tracer._finish(span.to_dict())


class Tracer:
    """Span factory + bounded sink: ring buffer and optional JSONL file.

    One process-wide instance (:data:`TRACER`) serves every layer; the
    module-level :func:`span` / :func:`current` / :func:`record_span`
    delegate to it.  All sink state is written under one lock; the
    enabled flag is read lock-free on the hot path (a stale read during
    ``configure`` at worst drops or keeps one span).
    """

    def __init__(self, ring_size: int = 4096) -> None:
        self._lock = threading.Lock()
        self._enabled = False  # guarded-by: self._lock
        self._ring: deque[dict[str, Any]] = deque(  # guarded-by: self._lock
            maxlen=ring_size
        )
        self._sink: IO[str] | None = None  # guarded-by: self._lock
        self._sink_path: Path | None = None  # guarded-by: self._lock
        self._max_bytes: int | None = None  # guarded-by: self._lock
        self._current: ContextVar[SpanContext | None] = ContextVar(
            "repro_obs_current_span", default=None
        )

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def configure(
        self,
        *,
        enabled: bool = True,
        ring_size: int | None = None,
        trace_file: str | Path | None = None,
        max_bytes: int | None = None,
    ) -> None:
        """(Re)configure the tracer; each call re-establishes the sink.

        ``trace_file`` opens a fresh JSON-lines sink (truncating);
        ``None`` closes any existing one — so ``configure(enabled=False)``
        is a complete shutdown (tests and example teardowns rely on it).
        ``ring_size`` rebuilds the ring, dropping buffered spans.
        ``max_bytes`` bounds the sink: once a write carries the file
        past it, the file rolls to ``<trace_file>.1`` (replacing any
        previous rollover) and the sink reopens fresh — a long-running
        service keeps at most ~``2 * max_bytes`` of spans on disk, and
        the newest spans are always in the live file.
        """
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be > 0, got {max_bytes}")
        with self._lock:
            old_sink, self._sink = self._sink, None
            self._sink_path = None
            self._max_bytes = max_bytes
            if ring_size is not None:
                self._ring = deque(maxlen=ring_size)
            if trace_file is not None:
                path = Path(trace_file)
                self._sink = path.open("w", encoding="utf-8")
                self._sink_path = path
            self._enabled = enabled
        if old_sink is not None:
            old_sink.close()

    @property
    def enabled(self) -> bool:
        """Whether spans are being recorded."""
        return self._enabled

    @property
    def trace_file(self) -> Path | None:
        """Path of the active JSON-lines sink, if one is configured."""
        return self._sink_path

    # ------------------------------------------------------------------
    # Span creation
    # ------------------------------------------------------------------
    def span(
        self,
        name: str,
        parent: SpanContext | None = _UNSET,
        **attrs: Any,
    ) -> _SpanHandle | _NullHandle:
        """Open a span as a context manager.

        ``parent`` omitted: nest under the ambient current span (or
        start a new trace at the root).  ``parent=ctx``: explicit
        cross-thread parenting.  ``parent=None``: force a new root.
        Disabled tracer: a shared no-op handle.
        """
        if not self._enabled:
            return _NULL_HANDLE
        return _SpanHandle(self, name, parent, dict(attrs))

    def record_span(
        self,
        name: str,
        *,
        start_perf_s: float,
        end_perf_s: float,
        parent: SpanContext | None = None,
        **attrs: Any,
    ) -> None:
        """Emit a retroactive span from timestamps kept elsewhere.

        Covers intervals where no code runs to hold a ``with`` open —
        a request parked on the coalescing queue, a group waiting for
        the flush worker.  The span's ids mint now; its timing is the
        caller's.
        """
        if not self._enabled:
            return
        if parent is None:
            trace_id, parent_id = _new_id(), None
        else:
            trace_id, parent_id = parent.trace_id, parent.span_id
        record = {
            "name": name,
            "trace_id": trace_id,
            "span_id": _new_id(),
            "parent_id": parent_id,
            "start_wall_s": time.time() - (end_perf_s - start_perf_s),
            "start_perf_s": start_perf_s,
            "duration_s": end_perf_s - start_perf_s,
            "thread": threading.current_thread().name,
            "error": None,
            "attrs": dict(attrs),
        }
        self._finish(record)

    def current(self) -> SpanContext | None:
        """The ambient span context of this thread/task, if any."""
        return self._current.get()

    # ------------------------------------------------------------------
    # Sink access
    # ------------------------------------------------------------------
    def finished(self) -> list[dict[str, Any]]:
        """Snapshot of the ring buffer, oldest span first."""
        with self._lock:
            return list(self._ring)

    def clear(self) -> None:
        """Drop the ring buffer's contents (sink file untouched)."""
        with self._lock:
            self._ring.clear()

    def _finish(self, record: dict[str, Any]) -> None:
        line: str | None = None
        with self._lock:
            if not self._enabled:
                return
            self._ring.append(record)
            if self._sink is not None:
                line = json.dumps(record, default=str)
                self._sink.write(line + "\n")
                # Flush per span: span volume is per-flush, not per-link,
                # and a crashed (or just un-closed) process must still
                # leave a summarizable trace behind.
                self._sink.flush()
                if (
                    self._max_bytes is not None
                    and self._sink.tell() >= self._max_bytes
                ):
                    self._sink = self._rotate_sink()

    def _rotate_sink(self) -> IO[str]:
        """Roll the full sink file to ``.1`` and reopen.  Lock held.

        Pure handle swap: closes the full sink, replaces any previous
        rollover, and *returns* the fresh handle — the caller stores it
        back into ``self._sink`` inside its own ``with self._lock:``
        block so the write stays lexically under the guard (REP002).
        """
        assert self._sink is not None and self._sink_path is not None
        self._sink.close()
        path = self._sink_path
        path.replace(path.with_name(path.name + ".1"))
        return path.open("w", encoding="utf-8")


TRACER = Tracer()
"""The process-wide tracer every serving layer opens spans on."""


def get_tracer() -> Tracer:
    """The process-wide tracer."""
    return TRACER


def configure(
    *,
    enabled: bool = True,
    ring_size: int | None = None,
    trace_file: str | Path | None = None,
    max_bytes: int | None = None,
) -> None:
    """Configure the process-wide tracer (see :meth:`Tracer.configure`)."""
    TRACER.configure(
        enabled=enabled,
        ring_size=ring_size,
        trace_file=trace_file,
        max_bytes=max_bytes,
    )


def span(
    name: str, parent: SpanContext | None = _UNSET, **attrs: Any
) -> _SpanHandle | _NullHandle:
    """Open a span on the process-wide tracer (see :meth:`Tracer.span`)."""
    return TRACER.span(name, parent, **attrs)


def current() -> SpanContext | None:
    """Ambient span context on the process-wide tracer."""
    return TRACER.current()


def record_span(
    name: str,
    *,
    start_perf_s: float,
    end_perf_s: float,
    parent: SpanContext | None = None,
    **attrs: Any,
) -> None:
    """Retroactive span on the process-wide tracer."""
    TRACER.record_span(
        name,
        start_perf_s=start_perf_s,
        end_perf_s=end_perf_s,
        parent=parent,
        **attrs,
    )
