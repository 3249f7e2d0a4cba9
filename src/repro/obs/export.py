"""Exporters: Chrome ``trace_event`` JSON, JSONL, Prometheus text.

Three formats for three audiences:

* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  ``trace_event`` "JSON Object Format" (``{"traceEvents": [...]}``),
  loadable in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.
  Spans become complete (``"ph": "X"``) events, instants become
  ``"ph": "i"`` events, and counter metrics become ``"ph": "C"`` events.
* :func:`write_jsonl` / :func:`read_jsonl` — one self-describing JSON
  object per line (``kind`` = ``span`` / ``instant`` / ``metrics``);
  lossless for spans, so a dump reloads to the identical span tree.
* :func:`prometheus_text` — a flat ``name value`` text snapshot in the
  Prometheus exposition format (dots rewritten to underscores).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.errors import ObsError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import InstantRecord, SpanRecord, Tracer

# -- Chrome trace_event ---------------------------------------------------

_REQUIRED_EVENT_KEYS = {"ph", "name", "ts", "pid", "tid"}


EPOCH_METADATA_NAME = "trace_epoch_us"
"""Metadata-event name carrying a trace's ``perf_counter`` epoch.

``time.perf_counter`` shares one monotonic origin across the processes
of a machine, so a per-worker trace stamped with its tracer's epoch can
be shifted onto a fleet-wide common timeline by :func:`merge_traces`.
"""


def chrome_trace(
    tracer: Tracer,
    metrics: MetricsRegistry | Mapping[str, Any] | None = None,
    process_name: str = "repro",
    pid: int = 0,
    epoch_us: float | None = None,
) -> dict[str, Any]:
    """The tracer's records as a Chrome ``trace_event`` JSON object.

    Args:
        tracer: A :class:`~repro.obs.trace.Tracer` (or anything with
            ``spans`` / ``instants`` lists).
        metrics: Optional registry or snapshot; counters and gauges are
            appended as ``"C"`` (counter-track) events so Perfetto plots
            them alongside the spans.
        process_name: The ``process_name`` metadata label.
        pid: Process id stamped on every event — each distinct pid is
            one lane ("process") in trace viewers, which is how
            fleet-worker traces stay separable after a merge.
        epoch_us: Tracer epoch (``tracer.epoch_s * 1e6``) recorded as a
            ``trace_epoch_us`` metadata event so :func:`merge_traces`
            can align this trace with traces from other processes.
    """
    events: list[dict[str, Any]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": pid,
            "tid": 0,
            "ts": 0,
            "args": {"name": process_name},
        }
    ]
    if epoch_us is not None:
        events.append(
            {
                "ph": "M",
                "name": EPOCH_METADATA_NAME,
                "pid": pid,
                "tid": 0,
                "ts": 0,
                "args": {"epoch_us": epoch_us},
            }
        )
    last_us = 0.0
    for s in tracer.spans:
        events.append(
            {
                "ph": "X",
                "name": s.name,
                "cat": s.cat,
                "ts": s.start_us,
                "dur": s.dur_us,
                "pid": pid,
                "tid": 0,
                "args": dict(s.args),
            }
        )
        last_us = max(last_us, s.start_us + s.dur_us)
    for i in tracer.instants:
        events.append(
            {
                "ph": "i",
                "s": "t",
                "name": i.name,
                "cat": i.cat,
                "ts": i.ts_us,
                "pid": pid,
                "tid": 0,
                "args": dict(i.args),
            }
        )
        last_us = max(last_us, i.ts_us)
    if metrics is not None:
        snap = metrics.snapshot() if isinstance(metrics, MetricsRegistry) else metrics
        for section in ("counters", "gauges"):
            for name, value in sorted(snap.get(section, {}).items()):
                events.append(
                    {
                        "ph": "C",
                        "name": name,
                        "cat": "metrics",
                        "ts": last_us,
                        "pid": pid,
                        "tid": 0,
                        "args": {"value": value},
                    }
                )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def validate_chrome_trace(data: Mapping[str, Any]) -> None:
    """Check a parsed trace against the ``trace_event`` schema essentials.

    Raises:
        ObsError: On a missing ``traceEvents`` list, a non-mapping
            event, missing required keys, or non-numeric ``ts``/``dur``.
    """
    events = data.get("traceEvents")
    if not isinstance(events, list):
        raise ObsError("chrome trace must carry a 'traceEvents' list")
    for k, event in enumerate(events):
        if not isinstance(event, Mapping):
            raise ObsError(f"traceEvents[{k}] is not an object")
        missing = _REQUIRED_EVENT_KEYS - set(event)
        if missing:
            raise ObsError(
                f"traceEvents[{k}] ({event.get('name')!r}) missing {sorted(missing)}"
            )
        for key in ("ts", "dur"):
            value = event.get(key, 0)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ObsError(
                    f"traceEvents[{k}].{key} must be finite, got {value!r}"
                )
        if event["ph"] == "X" and "dur" not in event:
            raise ObsError(f"traceEvents[{k}] complete event without 'dur'")


def write_chrome_trace(
    path: str | Path,
    tracer: Tracer,
    metrics: MetricsRegistry | Mapping[str, Any] | None = None,
    process_name: str = "repro",
    pid: int = 0,
    epoch_us: float | None = None,
) -> Path:
    """Serialise :func:`chrome_trace` to ``path``; returns the path."""
    path = Path(path)
    path.write_text(
        json.dumps(
            chrome_trace(
                tracer,
                metrics,
                process_name=process_name,
                pid=pid,
                epoch_us=epoch_us,
            )
        )
        + "\n"
    )
    return path


def load_chrome_trace(path: str | Path) -> dict[str, Any]:
    """Parse and validate a trace written by :func:`write_chrome_trace`.

    Raises:
        ObsError: If the file is not valid ``trace_event`` JSON.
    """
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ObsError(f"{path} is not JSON: {exc}") from exc
    validate_chrome_trace(data)
    return data


# -- multi-process trace merging ------------------------------------------


def _trace_epoch_us(data: Mapping[str, Any]) -> float | None:
    """The ``trace_epoch_us`` metadata value of one trace, if stamped."""
    for event in data.get("traceEvents", []):
        if event.get("ph") == "M" and event.get("name") == EPOCH_METADATA_NAME:
            value = event.get("args", {}).get("epoch_us")
            if isinstance(value, (int, float)) and math.isfinite(value):
                return float(value)
    return None


def merge_traces(traces: Sequence[Mapping[str, Any]]) -> dict[str, Any]:
    """Stitch per-process Chrome traces into one multi-lane timeline.

    Each input keeps its own lane (``pid``); events of epoch-stamped
    traces (see :data:`EPOCH_METADATA_NAME`) are shifted so every lane
    shares the earliest input's t=0, turning a grid of per-worker fleet
    traces into a single inspectable artifact.  Lanes are labelled
    ``process_name`` metadata: one per distinct pid, listing the job
    names that ran there (pool workers run several jobs per process).

    Args:
        traces: Parsed ``trace_event`` objects (e.g. from
            :func:`load_chrome_trace`).

    Raises:
        ObsError: On an empty input list or a trace without a
            ``traceEvents`` list.
    """
    if not traces:
        raise ObsError("merge_traces needs at least one trace")
    epochs = [_trace_epoch_us(t) for t in traces]
    stamped = [e for e in epochs if e is not None]
    base_us = min(stamped) if stamped else 0.0

    merged: list[dict[str, Any]] = []
    lane_names: dict[int, list[str]] = {}
    for data, epoch in zip(traces, epochs):
        events = data.get("traceEvents")
        if not isinstance(events, list):
            raise ObsError("chrome trace must carry a 'traceEvents' list")
        offset_us = (epoch - base_us) if epoch is not None else 0.0
        for event in events:
            pid = int(event.get("pid", 0))
            if event.get("ph") == "M":
                if event.get("name") == "process_name":
                    name = str(event.get("args", {}).get("name", ""))
                    names = lane_names.setdefault(pid, [])
                    if name and name not in names:
                        names.append(name)
                # Per-trace metadata (process_name, trace_epoch_us) is
                # re-emitted once per lane below.
                continue
            shifted = dict(event)
            shifted["ts"] = float(event.get("ts", 0.0)) + offset_us
            merged.append(shifted)
            lane_names.setdefault(pid, [])

    events_out: list[dict[str, Any]] = []
    for pid in sorted(lane_names):
        label = " | ".join(lane_names[pid]) or f"pid {pid}"
        events_out.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "ts": 0,
                "args": {"name": label},
            }
        )
    events_out.extend(sorted(merged, key=lambda e: (e["ts"], e.get("pid", 0))))
    return {"traceEvents": events_out, "displayTimeUnit": "ms"}


def merge_trace_files(
    paths: Sequence[str | Path], out: str | Path | None = None
) -> dict[str, Any]:
    """Load, merge, and optionally write a set of Chrome trace files.

    Args:
        paths: Trace files (each validated on load).
        out: When given, the merged trace is validated and written here.

    Raises:
        ObsError: On unreadable/invalid inputs or an empty path list.
    """
    merged = merge_traces([load_chrome_trace(p) for p in paths])
    validate_chrome_trace(merged)
    if out is not None:
        Path(out).write_text(json.dumps(merged) + "\n")
    return merged


def trace_lanes(data: Mapping[str, Any]) -> list[int]:
    """The distinct pids (viewer lanes) of a trace, sorted."""
    return sorted(
        {int(e.get("pid", 0)) for e in data.get("traceEvents", [])}
    )


def load_snapshot(path: str | Path) -> dict[str, Any]:
    """The metrics snapshot saved in a trace file, Chrome or JSONL format.

    Sniffs the format.  A JSON object with ``traceEvents`` is a Chrome
    trace: its ``"C"`` counter events are summed by name across every
    event and pid, so a merged fleet trace yields grid-wide totals, and
    come back as the snapshot's ``counters`` (the events do not say
    which metric was a gauge).  Anything else is read as a
    :func:`write_jsonl` dump and yields its ``metrics`` line, or an
    empty snapshot without one.

    Raises:
        ObsError: When the file parses as neither format.
    """
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError:
            data = None
        if isinstance(data, dict) and "traceEvents" in data:
            validate_chrome_trace(data)
            counters: dict[str, float] = {}
            for event in data["traceEvents"]:
                if event["ph"] != "C":
                    continue
                value = event.get("args", {}).get("value")
                if isinstance(value, (int, float)):
                    name = str(event["name"])
                    counters[name] = counters.get(name, 0.0) + value
            return {"counters": counters}
    _spans, _instants, snapshot = read_jsonl(path)
    return snapshot or {}


# -- JSONL ----------------------------------------------------------------


def write_jsonl(
    path: str | Path,
    tracer: Tracer,
    metrics: MetricsRegistry | Mapping[str, Any] | None = None,
) -> Path:
    """Dump spans, instants, and an optional metrics snapshot as JSONL."""
    path = Path(path)
    with path.open("w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps({
                "kind": "span",
                "uid": s.uid,
                "parent_uid": s.parent_uid,
                "name": s.name,
                "cat": s.cat,
                "start_us": s.start_us,
                "dur_us": s.dur_us,
                "depth": s.depth,
                "args": s.args,
            }) + "\n")
        for i in tracer.instants:
            fh.write(json.dumps({
                "kind": "instant",
                "uid": i.uid,
                "name": i.name,
                "cat": i.cat,
                "ts_us": i.ts_us,
                "args": i.args,
            }) + "\n")
        if metrics is not None:
            snap = (
                metrics.snapshot()
                if isinstance(metrics, MetricsRegistry)
                else metrics
            )
            fh.write(json.dumps({"kind": "metrics", "snapshot": snap}) + "\n")
    return path


def read_jsonl(
    path: str | Path,
) -> tuple[list[SpanRecord], list[InstantRecord], dict[str, Any] | None]:
    """Reload a :func:`write_jsonl` dump.

    Returns:
        ``(spans, instants, metrics_snapshot)`` — the spans and instants
        as the same record types the tracer produced (so the span tree
        round-trips exactly); the snapshot is ``None`` when absent.

    Raises:
        ObsError: On malformed lines or unknown record kinds.
    """
    spans: list[SpanRecord] = []
    instants: list[InstantRecord] = []
    snapshot: dict[str, Any] | None = None
    for n, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ObsError(f"{path}:{n} is not JSON: {exc}") from exc
        kind = record.pop("kind", None)
        try:
            if kind == "span":
                spans.append(SpanRecord(**record))
            elif kind == "instant":
                instants.append(InstantRecord(**record))
            elif kind == "metrics":
                snapshot = record["snapshot"]
            else:
                raise ObsError(f"{path}:{n} has unknown kind {kind!r}")
        except TypeError as exc:
            raise ObsError(f"{path}:{n} malformed {kind} record: {exc}") from exc
    return spans, instants, snapshot


def span_tree(spans: Iterable[SpanRecord]) -> dict[int | None, list[SpanRecord]]:
    """Children-by-parent-uid adjacency of a span list.

    ``tree[None]`` is the top level; children keep the recorded
    (completion) order, which is deterministic for a single-threaded
    tracer.
    """
    tree: dict[int | None, list[SpanRecord]] = {}
    for s in spans:
        tree.setdefault(s.parent_uid, []).append(s)
    return tree


# -- Prometheus -----------------------------------------------------------


def _prom_name(name: str) -> str:
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    flat = "".join(out)
    if not flat or flat[0].isdigit():
        flat = "_" + flat
    return flat


def _prom_label_value(value: str) -> str:
    """Escape a label value per the exposition format: backslash,
    double quote, and newline are the three characters with meaning
    inside a quoted label value."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _prom_labels(labels: Mapping[str, str], extra: str = "") -> str:
    """Render a ``{k="v",...}`` label block (empty string when bare)."""
    parts = [
        f'{_prom_name(str(key))}="{_prom_label_value(str(value))}"'
        for key, value in sorted(labels.items())
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def prometheus_text(
    metrics: MetricsRegistry | Mapping[str, Any],
    prefix: str = "repro",
    labels: Mapping[str, str] | None = None,
) -> str:
    """A Prometheus exposition-format snapshot of a registry.

    Histograms follow the cumulative-bucket convention
    (``_bucket{le=...}`` plus ``_sum`` / ``_count``); all names get
    ``prefix`` and dots become underscores.  ``labels`` are constant
    labels stamped on every sample (e.g. ``{"instance": ...}``); label
    names are sanitised like metric names and label values are escaped
    (backslash, quote, newline) per the exposition format.
    """
    snap = metrics.snapshot() if isinstance(metrics, MetricsRegistry) else metrics
    base = _prom_labels(labels) if labels else ""
    lines: list[str] = []
    for name, value in sorted(snap.get("counters", {}).items()):
        flat = f"{prefix}_{_prom_name(name)}"
        lines.append(f"# TYPE {flat} counter")
        lines.append(f"{flat}{base} {value:g}")
    for name, value in sorted(snap.get("gauges", {}).items()):
        flat = f"{prefix}_{_prom_name(name)}"
        lines.append(f"# TYPE {flat} gauge")
        lines.append(f"{flat}{base} {value:g}")
    for name, h in sorted(snap.get("histograms", {}).items()):
        flat = f"{prefix}_{_prom_name(name)}"
        lines.append(f"# TYPE {flat} histogram")
        cumulative = 0
        for bound, n in zip(h["bounds"], h["bucket_counts"]):
            cumulative += n
            bucket = _prom_labels(labels or {}, extra=f'le="{bound:g}"')
            lines.append(f"{flat}_bucket{bucket} {cumulative}")
        cumulative += h["bucket_counts"][-1]
        bucket = _prom_labels(labels or {}, extra='le="+Inf"')
        lines.append(f"{flat}_bucket{bucket} {cumulative}")
        lines.append(f"{flat}_sum{base} {h['sum']:g}")
        lines.append(f"{flat}_count{base} {h['count']}")
    return "\n".join(lines) + "\n"
