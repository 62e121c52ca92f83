"""Observability CLI: trace summarizer and telemetry server.

``python -m repro.obs summarize trace.jsonl`` (or ``-`` for stdin)
aggregates the spans the tracer wrote (one JSON object per line) into
a per-stage table — count, p50/p95/max duration, and self vs
cumulative time — answering "where did the request's wall time go"
without any external tooling.

*Cumulative* time is a stage's own span durations summed; *self* time
subtracts the durations of its direct children (matched by
``parent_id`` within the same trace), so a ``stream.flush`` whose time
is all spent inside ``stream.plan_solve`` children shows near-zero
self.  Ill-formed lines (interleaved partial writes from a crashed
writer) are skipped and counted, not fatal — unless *nothing* valid
remains.  Exit status: 0 with a non-empty table, 1 when the input
holds no valid spans (CI's smoke step fails on that), 2 on usage
errors.

``python -m repro.obs serve --port N`` runs the standalone telemetry
endpoint (``/metrics``, ``/health``, ``/traces``); see
:mod:`repro.obs.server`.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from pathlib import Path
from typing import Any, Iterable, Sequence


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Exact nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, int(q * len(sorted_values))))
    return sorted_values[rank]


def parse_span_lines(
    lines: Iterable[str],
) -> tuple[list[dict[str, Any]], int]:
    """Parse spans-JSONL lines; returns ``(spans, n_skipped)``.

    Blank lines don't count as skipped; corrupt JSON (a crashed
    writer's interleaved partial lines), non-object lines, and records
    missing span fields do.
    """
    spans: list[dict[str, Any]] = []
    skipped = 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            skipped += 1
            continue
        if not isinstance(record, dict):
            skipped += 1
            continue
        if "name" not in record or "duration_s" not in record:
            skipped += 1
            continue
        try:
            record["duration_s"] = float(record["duration_s"])
        except (TypeError, ValueError):
            skipped += 1
            continue
        spans.append(record)
    return spans, skipped


def load_spans(path: Path) -> list[dict[str, Any]]:
    """Parse a spans JSONL file, skipping ill-formed lines."""
    with path.open("r", encoding="utf-8") as handle:
        spans, _skipped = parse_span_lines(handle)
    return spans


def summarize_spans(spans: Sequence[dict[str, Any]]) -> list[dict[str, Any]]:
    """Aggregate spans into per-stage rows, heaviest cumulative first."""
    children_s: dict[tuple[str, str], float] = {}
    for span in spans:
        parent_id = span.get("parent_id")
        trace_id = span.get("trace_id")
        if parent_id and trace_id:
            key = (str(trace_id), str(parent_id))
            children_s[key] = children_s.get(key, 0.0) + span["duration_s"]

    durations: dict[str, list[float]] = {}
    self_s: dict[str, float] = {}
    errors: dict[str, int] = {}
    for span in spans:
        name = str(span["name"])
        duration = span["duration_s"]
        durations.setdefault(name, []).append(duration)
        own_children = children_s.get(
            (str(span.get("trace_id")), str(span.get("span_id"))), 0.0
        )
        self_s[name] = self_s.get(name, 0.0) + max(0.0, duration - own_children)
        if span.get("error"):
            errors[name] = errors.get(name, 0) + 1

    rows: list[dict[str, Any]] = []
    for name, values in durations.items():
        values.sort()
        rows.append(
            {
                "stage": name,
                "count": len(values),
                "p50_s": _percentile(values, 0.50),
                "p95_s": _percentile(values, 0.95),
                "max_s": values[-1],
                "self_s": self_s[name],
                "cumulative_s": sum(values),
                "errors": errors.get(name, 0),
            }
        )
    rows.sort(key=lambda row: -row["cumulative_s"])
    return rows


def _format_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f}s "
    if seconds >= 1e-3:
        return f"{seconds * 1e3:8.3f}ms"
    return f"{seconds * 1e6:8.1f}us"


def render_table(rows: Sequence[dict[str, Any]]) -> str:
    """The per-stage rows as an aligned text table."""
    header = (
        f"{'stage':<28} {'count':>6} {'p50':>10} {'p95':>10} "
        f"{'max':>10} {'self':>10} {'cumul':>10} {'err':>4}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['stage']:<28} {row['count']:>6} "
            f"{_format_s(row['p50_s']):>10} {_format_s(row['p95_s']):>10} "
            f"{_format_s(row['max_s']):>10} {_format_s(row['self_s']):>10} "
            f"{_format_s(row['cumulative_s']):>10} {row['errors']:>4}"
        )
    return "\n".join(lines)


def _cmd_summarize(args: argparse.Namespace) -> int:
    if args.trace_file == "-":
        source = "<stdin>"
        spans, skipped = parse_span_lines(sys.stdin)
    else:
        path = Path(args.trace_file)
        if not path.is_file():
            print(f"error: no such trace file: {path}", file=sys.stderr)
            return 2
        source = str(path)
        with path.open("r", encoding="utf-8") as handle:
            spans, skipped = parse_span_lines(handle)
    rows = summarize_spans(spans)
    if not rows:
        detail = (
            f"{skipped} ill-formed line(s) skipped — truncated or "
            "interleaved partial writes from a crashed writer?"
            if skipped
            else "empty trace"
        )
        print(
            f"error: {source} contains no valid spans ({detail})",
            file=sys.stderr,
        )
        return 1
    if skipped:
        print(
            f"warning: skipped {skipped} ill-formed line(s) in {source} "
            "(partial writes from a crashed writer?)",
            file=sys.stderr,
        )
    if args.json:
        n_traces = len(
            {span.get("trace_id") for span in spans if span.get("trace_id")}
        )
        print(
            json.dumps(
                {"n_spans": len(spans), "n_traces": n_traces, "stages": rows},
                indent=2,
            )
        )
    else:
        print(f"{len(spans)} spans from {source}")
        print(render_table(rows))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs.health import get_monitor
    from repro.obs.server import ObsServer

    monitor = get_monitor()
    sample_on_request = args.interval_s <= 0
    server = ObsServer(
        port=args.port,
        host=args.host,
        monitor=monitor,
        sample_on_request=sample_on_request,
    ).start()
    if not sample_on_request:
        monitor.interval_s = args.interval_s
        monitor.start()
    print(
        f"serving telemetry on {server.url} "
        "(/metrics /health /traces; Ctrl-C to stop)",
        flush=True,
    )
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        if not sample_on_request:
            monitor.stop()
        server.stop()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observability tooling for the repro serving stack.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    summarize = sub.add_parser(
        "summarize",
        help="per-stage latency table (p50/p95/max, self vs cumulative) "
        "from a spans JSONL trace file",
    )
    summarize.add_argument(
        "trace_file",
        help="spans JSONL written by the tracer, or '-' for stdin",
    )
    summarize.add_argument(
        "--json",
        action="store_true",
        help="emit the summary as JSON instead of a table",
    )
    summarize.set_defaults(func=_cmd_summarize)

    serve = sub.add_parser(
        "serve",
        help="run the telemetry endpoint (/metrics, /health, /traces)",
    )
    serve.add_argument(
        "--port", type=int, default=9430, help="port to bind (default 9430)"
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="address to bind (default localhost)"
    )
    serve.add_argument(
        "--interval-s",
        type=float,
        default=0.0,
        dest="interval_s",
        help="background health-sampling interval in seconds; "
        "0 (default) samples on each /health request instead",
    )
    serve.set_defaults(func=_cmd_serve)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    result: int = args.func(args)
    return result
