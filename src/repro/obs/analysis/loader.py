"""Robust loading of exported observability artifacts.

One traced run exports a set of siblings next to each other (see
:meth:`repro.obs.Observability.export`)::

    <base>.trace.json     Chrome trace_event JSON
    <base>.audit.jsonl    adaptive audit log, one record per line
    <base>.metrics.json   metrics registry snapshot
    <base>.alerts.jsonl   live SLO alert timeline (``--live`` runs only)

The loader finds and parses those sets, raising
:class:`TraceArtifactError` -- with the file and the reason -- instead
of a traceback when a directory is empty, an export was interrupted
mid-write, or a file is not the format its name claims. Every analysis
tool and the ``python -m repro.obs`` CLI go through it, and
:func:`find_trace_files` is the one place that decides which trace
files a path names.
"""

from __future__ import annotations

import glob
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple


class TraceArtifactError(Exception):
    """An artifact is missing, truncated, or structurally not a trace."""


@dataclass
class TraceArtifacts:
    """One traced run's parsed artifacts."""

    base: str  # export base name, e.g. "Q3-dynamic"
    trace_path: str
    payload: dict  # raw Chrome trace JSON
    spans: List[dict] = field(default_factory=list)
    instants: List[dict] = field(default_factory=list)
    audit_rows: List[dict] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: Live-run SLO alerts (``<base>.alerts.jsonl`` rows; empty for a
    #: run recorded without ``--live``).
    alert_rows: List[dict] = field(default_factory=list)

    @property
    def dropped_detail(self) -> int:
        return self.payload.get("otherData", {}).get("dropped_detail", 0)

    def header(self) -> str:
        """Span count, deepest span depth and capped detail spans."""
        depth = max((s["depth"] for s in self.spans), default=-1)
        return (
            f"{len(self.spans)} span(s), max depth {depth}, "
            f"dropped detail {self.dropped_detail}"
        )


def find_trace_files(path: str) -> List[str]:
    """The trace files ``path`` names: the file itself, or a
    directory's ``*.trace.json`` files in name order. A missing path or
    a directory without traces is an error -- the caller asked to read
    traces that are not there."""
    if not os.path.exists(path):
        raise TraceArtifactError(f"{path}: no such file or directory")
    if not os.path.isdir(path):
        return [path]
    files = sorted(glob.glob(os.path.join(path, "*.trace.json")))
    if not files:
        raise TraceArtifactError(
            f"{path}: no *.trace.json files found (did the traced bench "
            f"run, and with --trace pointing here?)"
        )
    return files


def load_json_file(path: str, kind: str) -> Any:
    """Parse one JSON artifact with actionable errors."""
    if not os.path.exists(path):
        raise TraceArtifactError(f"{path}: {kind} file does not exist")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise TraceArtifactError(f"{path}: cannot read {kind}: {exc}") from exc
    if not text.strip():
        raise TraceArtifactError(
            f"{path}: {kind} file is empty (export interrupted?)"
        )
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceArtifactError(
            f"{path}: {kind} is not valid JSON (truncated or partially "
            f"written export?): {exc}"
        ) from exc


def load_jsonl_file(path: str, kind: str) -> List[dict]:
    """Parse one JSONL artifact; a truncated final line is an error."""
    if not os.path.exists(path):
        raise TraceArtifactError(f"{path}: {kind} file does not exist")
    rows: List[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise TraceArtifactError(
                    f"{path}:{lineno}: {kind} line is not valid JSON "
                    f"(truncated export?): {exc}"
                ) from exc
    return rows


def extract_spans(payload: dict) -> Tuple[List[dict], List[dict]]:
    """X/i events with seconds-domain ``start``/``dur`` and track names
    resolved from the thread_name metadata.

    Returns ``(spans, instants)``. Raises :class:`TraceArtifactError`
    when the payload is not a Chrome trace.
    """
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise TraceArtifactError(
            "payload has no traceEvents list -- not a Chrome trace export"
        )
    us = 1_000_000.0
    thread_names: Dict[Tuple[int, int], str] = {}
    for ev in events:
        if ev.get("ph") == "M" and ev.get("name") == "thread_name":
            thread_names[(ev["pid"], ev["tid"])] = ev["args"]["name"]
    spans: List[dict] = []
    instants: List[dict] = []
    for ev in events:
        ph = ev.get("ph")
        if ph not in ("X", "i"):
            continue
        row = {
            "name": ev["name"],
            "cat": ev.get("cat", ""),
            "track": thread_names.get((ev["pid"], ev["tid"]), "?"),
            "start": ev["ts"] / us,
            "depth": ev.get("args", {}).get("depth", 0),
            "args": ev.get("args", {}),
        }
        if ph == "X":
            row["dur"] = ev["dur"] / us
            spans.append(row)
        else:
            instants.append(row)
    return spans, instants


def extract_alerts(payload: dict) -> List[dict]:
    """Reconstruct alert rows from the trace's async ``b``/``e`` pairs.

    Fallback for a live trace whose ``alerts.jsonl`` sibling went
    missing: the embedded bands carry rule/severity/metric/state/peak,
    so the analysis join still works (evidence samples only live in the
    jsonl). ``cleared_at`` comes from the matching ``e`` unless the
    band was exported ``state="open"`` (an open alert's ``e`` sits at
    the trace end only to close the band visually).
    """
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return []
    us = 1_000_000.0
    rows: List[dict] = []
    open_rows: Dict[Tuple[str, Any], dict] = {}
    for ev in events:
        if ev.get("cat") != "alert":
            continue
        ph = ev.get("ph")
        key = (str(ev.get("name")), ev.get("id"))
        if ph == "b":
            args = ev.get("args", {})
            row = {
                "seq": ev.get("id"),
                "rule": str(ev.get("name")),
                "severity": args.get("severity"),
                "metric": args.get("metric"),
                "fired_at": ev.get("ts", 0.0) / us,
                "cleared_at": None,
                "state": args.get("state", "open"),
                "peak": args.get("peak"),
            }
            rows.append(row)
            open_rows[key] = row
        elif ph == "e":
            row = open_rows.pop(key, None)
            if row is not None and row["state"] == "cleared":
                row["cleared_at"] = ev.get("ts", 0.0) / us
    return rows


def load_one(trace_path: str) -> TraceArtifacts:
    """Load one export triple by its ``*.trace.json`` path (the audit
    and metrics siblings are found by naming convention; a missing
    sibling is tolerated, a corrupt one is not)."""
    if not trace_path.endswith(".trace.json"):
        raise TraceArtifactError(
            f"{trace_path}: expected a *.trace.json file "
            f"(or a directory of them)"
        )
    payload = load_json_file(trace_path, "trace")
    if not isinstance(payload, dict):
        raise TraceArtifactError(
            f"{trace_path}: trace is {type(payload).__name__}, not an object"
        )
    try:
        spans, instants = extract_spans(payload)
    except TraceArtifactError as exc:
        raise TraceArtifactError(f"{trace_path}: {exc}") from exc

    base = os.path.basename(trace_path)[: -len(".trace.json")]
    audit_path = trace_path[: -len(".trace.json")] + ".audit.jsonl"
    metrics_path = trace_path[: -len(".trace.json")] + ".metrics.json"
    alerts_path = trace_path[: -len(".trace.json")] + ".alerts.jsonl"
    audit_rows = (
        load_jsonl_file(audit_path, "audit") if os.path.exists(audit_path) else []
    )
    metrics = (
        load_json_file(metrics_path, "metrics")
        if os.path.exists(metrics_path)
        else {}
    )
    if metrics and not isinstance(metrics, dict):
        raise TraceArtifactError(
            f"{metrics_path}: metrics is {type(metrics).__name__}, not an object"
        )
    alert_rows = (
        load_jsonl_file(alerts_path, "alerts")
        if os.path.exists(alerts_path)
        else extract_alerts(payload)
    )
    return TraceArtifacts(
        base=base,
        trace_path=trace_path,
        payload=payload,
        spans=spans,
        instants=instants,
        audit_rows=audit_rows,
        metrics=metrics,
        alert_rows=alert_rows,
    )


def load_artifacts(path: str) -> List[TraceArtifacts]:
    """Load every export triple under ``path`` (a ``*.trace.json`` file
    or a directory; see :func:`find_trace_files` for what is an
    error)."""
    return [load_one(f) for f in find_trace_files(path)]
