"""Per-layer instrumentation for the traced run (``--trace 1``).

Spans are opened only from this file, around calls into each layer's
public functions, timed from outside the program:

* objects whose constructor accepts a collaborator get a traced proxy
  injected -- ``RangingService(engine=)``, ``StreamingRangingService(
  service=)``, ``LocalizationService(ranging=)``;
* kernel functions are wrapped wherever a ``repro.*`` module has bound
  them by name (``repro.core.batch.invert_ndft_batch`` and so on);
* ``REGISTRY.inc``/``observe``/``set_gauge`` calls are counted.

Spans stay in memory.  After the measured phase :func:`layer_metrics`
turns them into per-layer numbers.  A layer's self time in one op is
the part of the op's wall time in which that layer is the deepest one
running for the op, which is the layer's span minus the part its
children cover; the self times of all layers add up to the op's wall
time.  The run checks the accounting from the other side: a layer
that stops being traced leaves its time to the layer above it, so
:func:`layer_metrics` also counts the spans each layer recorded, the
stream submits whose downstream call was never seen, and the share of
op time left to the root (``bench.root_self_frac``).

Untraced runs import nothing from here.
"""

from __future__ import annotations

import contextvars
import inspect
import statistics
import sys
import threading
import time

# Which op (request) the calling task serves; set around each op by the
# serving process and copied into the tasks the stack spawns for it.
CURRENT_OP: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_op", default=None
)

# Nesting depth of each layer below an op.  At any instant of an op the
# deepest running layer owns the time.
DEPTH = {
    "bench": 0,
    "loc": 0,
    "stream": 1,
    "loc.solve": 1,
    "stream.queue": 2,
    "net": 2,
    "engine": 3,
    "frontend": 4,
    "deflation": 4,
    "sparse": 4,
}

# Kernel functions timed per layer, by the module that defines them.
KERNELS = {
    "frontend": (
        ("repro.core.cfo", "band_products"),
        ("repro.core.interpolation", "round_trip_slope_delay_s"),
    ),
    "deflation": (
        ("repro.core.deflation_batch", "extract_paths_batch"),
        ("repro.core.deflation_batch", "prune_ghost_atoms_batch"),
        ("repro.core.deflation_batch", "full_aperture_refit_batch"),
        ("repro.core.deflation_batch", "first_path_delays_batch"),
    ),
    "sparse": (("repro.core.sparse", "invert_ndft_batch"),),
    "loc.solve": (
        ("repro.core.localization_batch", "locate_transmitter_batch"),
        ("repro.core.localization", "locate_transmitter"),
    ),
}


class Span:
    """One timed call into a layer."""

    __slots__ = (
        "layer",
        "start",
        "end",
        "parent",
        "ops",
        "n_links",
        "child_s",
        "n_children",
        "queue_end",
        "info",
    )

    def __init__(self, layer, start, parent=None, ops=(), n_links=0):
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.ops = ops
        self.n_links = n_links
        self.child_s = 0.0
        self.n_children = 0
        self.queue_end = None
        self.info = None


class Recorder:
    """Holds the spans of one traced run, in memory."""

    def __init__(self) -> None:
        self.recording = False
        self.spans: list[Span] = []
        self.registry_calls = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        # link id -> the stream.submit span currently carrying it
        self.link_submit: dict[str, Span] = {}
        # id(sweeps tuple) -> link id, for sweep solves that bypass net
        self.sweep_link: dict[int, str] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- span bookkeeping ------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str, n_links: int = 0, links=None) -> Span | None:
        """Start a span on this thread; None when not recording or nested.

        A span opened under another on this thread serves its parent's
        ops.  A top-level span -- a downstream call on a flush worker --
        serves the ops that submitted ``links``, and its start ends
        their queue waits.
        """
        if not self.recording:
            return None
        stack = self._stack()
        if any(s.layer == layer for s in stack):
            return None  # a layer calling itself is one span
        parent = stack[-1] if stack else None
        start = time.perf_counter()
        if parent is not None:
            ops = parent.ops
        elif links is not None:
            ops = self.downstream(links, start)
        else:
            ops = ()
        span = Span(layer, start, parent, ops, n_links)
        stack.append(span)
        return span

    def close(self, span: Span | None) -> None:
        if span is None:
            return
        span.end = time.perf_counter()
        self._stack().pop()
        if span.parent is not None:
            span.parent.child_s += span.end - span.start
            span.parent.n_children += 1
        with self._lock:
            self.spans.append(span)

    def downstream(self, link_ids, start: float) -> tuple:
        """Ops carried by a downstream call; ends their queue waits."""
        ops = []
        for link in link_ids:
            submit = self.link_submit.get(link)
            if submit is None:
                continue
            if submit.queue_end is None:
                submit.queue_end = start
            ops.extend(submit.ops)
        return tuple(dict.fromkeys(ops))

    # -- installation ----------------------------------------------------
    def _patch(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap kernel functions where repro modules bound them by name."""
        for layer, targets in KERNELS.items():
            for module_name, func_name in targets:
                module = sys.modules.get(module_name)
                original = getattr(module, func_name, None)
                if original is None:
                    continue
                wrapped = self._wrap_function(original, layer)
                for name, mod in list(sys.modules.items()):
                    if not name.startswith("repro") or mod is None:
                        continue
                    if getattr(mod, func_name, None) is original:
                        self._patch(mod, func_name, wrapped)
        from repro.obs import REGISTRY

        for method in ("inc", "observe", "set_gauge"):
            self._patch(REGISTRY, method, self._counting(getattr(REGISTRY, method)))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)

    def _counting(self, method):
        def counted(*args, **kwargs):
            if self.recording:
                with self._lock:
                    self.registry_calls += 1
            return method(*args, **kwargs)

        return counted

    def _wrap_function(self, fn, layer: str):
        signature = inspect.signature(fn)
        observe = _OBSERVERS.get(fn.__name__)
        rec = self

        def wrapper(*args, **kwargs):
            span = rec.open(layer)
            try:
                if span is None or observe is None:
                    return fn(*args, **kwargs)
                return observe(span, fn, signature.bind(*args, **kwargs))
            finally:
                rec.close(span)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- proxies ---------------------------------------------------------
    def engine(self, engine):
        """Traced stand-in for a ``BatchTofEngine``."""
        rec = self

        def products(frequencies_hz, channels, *args, **kwargs):
            span = rec.open("engine", n_links=len(channels))
            try:
                return engine.estimate_products_batch(
                    frequencies_hz, channels, *args, **kwargs
                )
            finally:
                rec.close(span)

        def sweeps(sweeps_per_link, *args, **kwargs):
            sweeps_per_link = list(sweeps_per_link)
            span = rec.open(
                "engine",
                n_links=len(sweeps_per_link),
                links=[rec.sweep_link.get(id(s)) for s in sweeps_per_link],
            )
            try:
                return engine.estimate_sweeps_batch(sweeps_per_link, *args, **kwargs)
            finally:
                rec.close(span)

        return _Proxy(
            engine, estimate_products_batch=products, estimate_sweeps_batch=sweeps
        )

    def service(self, service):
        """Traced stand-in for a ``RangingService``."""
        rec = self

        def traced(method):
            def call(requests, *args, **kwargs):
                requests = list(requests)
                span = rec.open(
                    "net", n_links=len(requests), links=[r.link_id for r in requests]
                )
                try:
                    return method(requests, *args, **kwargs)
                finally:
                    rec.close(span)

            return call

        return _Proxy(
            service,
            submit=traced(service.submit),
            submit_grouped=traced(service.submit_grouped),
        )

    def stream(self, stream):
        """Traced stand-in for a ``StreamingRangingService``."""
        rec = self

        async def submit(request):
            if not rec.recording:
                return await stream.submit(request)
            op = CURRENT_OP.get()
            span = Span("stream", time.perf_counter(), ops=(op,), n_links=1)
            rec.link_submit[request.link_id] = span
            sweeps = getattr(request, "sweeps", None)
            if sweeps is not None:
                rec.sweep_link[id(sweeps)] = request.link_id
            try:
                return await stream.submit(request)
            finally:
                span.end = time.perf_counter()
                with rec._lock:
                    rec.spans.append(span)

        return _Proxy(stream, submit=submit)


class _Proxy:
    """Forwards every attribute to ``target`` except the traced methods."""

    def __init__(self, target, **methods):
        self.__dict__["_target"] = target
        self.__dict__.update(methods)

    def __getattr__(self, name):
        return getattr(self.__dict__["_target"], name)


# ----------------------------------------------------------------------
# What a kernel span records about its call, beyond its duration.
# ----------------------------------------------------------------------
def _observe_extract(span, fn, bound):
    result = fn(*bound.args, **bound.kwargs)
    span.n_links = len(result)
    span.info = sum(len(paths) for paths in result)
    return result


def _observe_fista(span, fn, bound):
    import numpy as np

    args = bound.arguments
    n_links = len(bound.args[0])
    iterations = args.get("iterations_out")
    if iterations is None:
        iterations = np.zeros(n_links, dtype=np.int64)
        bound.arguments["iterations_out"] = iterations
    result = fn(*bound.args, **bound.kwargs)
    config = args.get("config")
    cap = getattr(config, "max_iterations", None)
    if cap is None:
        from repro.core.sparse import SparseSolverConfig

        cap = SparseSolverConfig().max_iterations
    span.n_links = n_links
    span.info = ([int(v) for v in iterations], int(cap))
    return result


def _observe_solve(span, fn, bound):
    import numpy as np

    distances = np.atleast_2d(np.asarray(bound.args[1], dtype=float))
    span.n_links = distances.shape[0]
    span.info = [tuple(float(d) for d in row) for row in distances]
    return fn(*bound.args, **bound.kwargs)


_OBSERVERS = {
    "extract_paths_batch": _observe_extract,
    "invert_ndft_batch": _observe_fista,
    "locate_transmitter_batch": _observe_solve,
    "locate_transmitter": _observe_solve,
}


# ----------------------------------------------------------------------
# Accounting
# ----------------------------------------------------------------------
def _self_times(root: tuple[float, float, str], spans) -> dict[str, float]:
    """Deepest-running-layer attribution of one op's wall time."""
    events = [(root[0], 0, root[2]), (root[1], 1, root[2])]
    for start, end, layer in spans:
        if end > start:
            events.append((start, 0, layer))
            events.append((end, 1, layer))
    events.sort(key=lambda e: (e[0], -e[1]))
    active: dict[str, int] = {}
    out: dict[str, float] = {}
    last = events[0][0]
    for t, closing, layer in events:
        if t > last and active:
            owner = max(active, key=lambda name: DEPTH[name])
            out[owner] = out.get(owner, 0.0) + (t - last)
        last = t
        if closing:
            active[layer] -= 1
            if not active[layer]:
                del active[layer]
        else:
            active[layer] = active.get(layer, 0) + 1
    return out


def _per_link(total: float, n_links: int) -> float:
    return total / n_links if n_links else 0.0


def layer_metrics(rec: Recorder, ops: list[dict], root_layer: str) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, and what checks its accounting.

    ``ops`` are the serving process's op records carrying ``op``, ``start_s`` and
    ``end_s`` (the op's wall-time interval on ``time.perf_counter``),
    and for localization ops the ``solve_rows`` their fix was solved
    from.  The accounting gives each layer's mean self time per op, the
    number of spans each layer recorded, and the number of stream
    submits that no downstream call picked up.
    """
    n_ops = len(ops)
    by_layer: dict[str, list[Span]] = {}
    for span in rec.spans:
        by_layer.setdefault(span.layer, []).append(span)
    # Link each position solve to the ops whose circle system it solved.
    row_op = {}
    for op in ops:
        for row in op.get("solve_rows", ()):
            row_op[row] = op["op"]
    for span in by_layer.get("loc.solve", []):
        span.ops = tuple(
            dict.fromkeys(row_op[row] for row in span.info or () if row in row_op)
        )

    op_spans: dict[object, list[tuple[float, float, str]]] = {
        op["op"]: [] for op in ops
    }
    for span in rec.spans:
        for op in span.ops:
            if op in op_spans:
                op_spans[op].append((span.start, span.end, span.layer))
        if span.layer == "stream" and span.queue_end is not None:
            for op in span.ops:
                if op in op_spans:
                    op_spans[op].append((span.start, span.queue_end, "stream.queue"))

    self_sum: dict[str, float] = {}
    wall = 0.0
    for op in ops:
        selfs = _self_times((op["start_s"], op["end_s"], root_layer), op_spans[op["op"]])
        wall += op["end_s"] - op["start_s"]
        for layer, seconds in selfs.items():
            self_sum[layer] = self_sum.get(layer, 0.0) + seconds

    streams = by_layer.get("stream", [])
    nets = by_layer.get("net", [])
    engines = by_layer.get("engine", [])
    n_links = len(streams)
    downstream_calls = len(nets) + sum(1 for s in engines if s.parent is None)
    queue_waits = [s.queue_end - s.start for s in streams if s.queue_end is not None]
    solves = by_layer.get("loc.solve", [])
    extracts = [s for s in by_layer.get("deflation", []) if s.info is not None]
    fista = [s for s in by_layer.get("sparse", []) if s.info is not None]
    iterations = [v for s in fista for v in s.info[0]]
    cap_hits = sum(1 for s in fista for v in s.info[0] if v >= s.info[1])

    def busy(layer: str) -> float:
        return sum(s.end - s.start for s in by_layer.get(layer, []))

    def mean_self(layer: str) -> float:
        return self_sum.get(layer, 0.0) / n_ops if n_ops else 0.0

    metrics = {
        "loc.self_s_per_op": mean_self("loc"),
        "loc.solve_s_per_op": busy("loc.solve") / n_ops if n_ops else 0.0,
        "loc.clients_per_solve": (
            sum(s.n_links for s in solves) / len(solves) if solves else 0.0
        ),
        "stream.queue_wait_p50_s": (
            statistics.median(queue_waits) if queue_waits else 0.0
        ),
        "stream.links_per_flush": (
            n_links / downstream_calls if downstream_calls else 0.0
        ),
        "stream.self_s_per_op": mean_self("stream"),
        "net.self_s_per_op": mean_self("net"),
        "net.retried_links_per_op": (
            sum(max(0, s.n_children - 1) for s in nets) / n_ops if n_ops else 0.0
        ),
        "engine.links_per_call": (
            sum(s.n_links for s in engines) / len(engines) if engines else 0.0
        ),
        "engine.busy_s_per_link": _per_link(busy("engine"), n_links),
        "engine.self_s_per_link": _per_link(
            sum((s.end - s.start) - s.child_s for s in engines), n_links
        ),
        "frontend.busy_s_per_link": _per_link(busy("frontend"), n_links),
        "deflation.busy_s_per_link": _per_link(busy("deflation"), n_links),
        "deflation.paths_per_link": (
            sum(s.info for s in extracts) / sum(s.n_links for s in extracts)
            if extracts
            else 0.0
        ),
        "sparse.busy_s_per_link": _per_link(busy("sparse"), n_links),
        "sparse.iterations_mean": (
            statistics.fmean(iterations) if iterations else 0.0
        ),
        "sparse.cap_hit_frac": cap_hits / len(iterations) if iterations else 0.0,
        "obs.registry_calls_per_op": rec.registry_calls / n_ops if n_ops else 0.0,
        "bench.root_self_frac": self_sum.get(root_layer, 0.0) / wall if wall else 0.0,
    }
    accounting = {
        "self_s_per_op": {k: v / n_ops for k, v in self_sum.items()} if n_ops else {},
        "spans": {layer: len(spans) for layer, spans in by_layer.items()},
        "unqueued_submits": sum(1 for s in streams if s.queue_end is None),
    }
    return metrics, accounting
