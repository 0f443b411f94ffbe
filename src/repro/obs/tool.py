"""Trace analysis: summaries and Chrome trace-event export.

Backs ``scripts/trace_tool.py``.  Works on the JSONL traces
:mod:`repro.obs.trace` writes: one header line, then span/instant events
with ``perf_counter_ns`` timestamps.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.trace import TRACE_SCHEMA_VERSION


class TraceError(ValueError):
    """The file is not a well-formed repro.obs trace."""


def load_trace(path: str) -> Tuple[dict, List[dict]]:
    """Parse a JSONL trace into ``(header, events)``, validating schema."""

    header: Optional[dict] = None
    events: List[dict] = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise TraceError(f"{path}:{line_no}: not JSON ({error})") from None
            if header is None:
                if record.get("kind") != "header":
                    raise TraceError(f"{path}: first line is not a trace header")
                if record.get("schema") != TRACE_SCHEMA_VERSION:
                    raise TraceError(
                        f"{path}: schema {record.get('schema')!r} != "
                        f"{TRACE_SCHEMA_VERSION}"
                    )
                header = record
            else:
                if record.get("kind") not in ("span", "event"):
                    raise TraceError(f"{path}:{line_no}: unknown kind {record!r}")
                events.append(record)
    if header is None:
        raise TraceError(f"{path}: empty trace (no header)")
    return header, events


def _spans(events: List[dict]) -> List[dict]:
    return [e for e in events if e["kind"] == "span"]


def _root_span(events: List[dict]) -> Optional[dict]:
    """The longest top-level span (normally the single ``session.run``)."""

    roots = [s for s in _spans(events) if s.get("parent") is None]
    if not roots:
        return None
    return max(roots, key=lambda s: s["dur"])


def phase_breakdown(events: List[dict]) -> Dict[str, Any]:
    """Per-phase time under the root span, plus coverage of its wall time.

    Phases are the ``phase.*`` spans that are direct children of the root
    ``session.run`` span; coverage is the fraction of the root's duration
    they account for (the acceptance gate asks for >= 95%).
    """

    root = _root_span(events)
    if root is None:
        return {"root": None, "phases": {}, "coverage": 0.0}
    phases: Dict[str, Dict[str, Any]] = {}
    covered = 0
    for span in _spans(events):
        if span.get("parent") != root["id"] or not span["name"].startswith("phase."):
            continue
        entry = phases.setdefault(span["name"], {"count": 0, "total_ns": 0})
        entry["count"] += 1
        entry["total_ns"] += span["dur"]
        covered += span["dur"]
    for entry in phases.values():
        entry["total_s"] = entry["total_ns"] / 1e9
        entry["share"] = entry["total_ns"] / root["dur"] if root["dur"] else 0.0
    return {
        "root": {"name": root["name"], "dur_s": root["dur"] / 1e9, "attrs": root["attrs"]},
        "phases": phases,
        "coverage": covered / root["dur"] if root["dur"] else 0.0,
    }


def span_totals(events: List[dict]) -> Dict[str, Dict[str, Any]]:
    """Aggregate count/total duration per span name (all nesting levels)."""

    totals: Dict[str, Dict[str, Any]] = {}
    for span in _spans(events):
        entry = totals.setdefault(span["name"], {"count": 0, "total_ns": 0})
        entry["count"] += 1
        entry["total_ns"] += span["dur"]
    for entry in totals.values():
        entry["total_s"] = entry["total_ns"] / 1e9
    return totals


def slowest_specs(events: List[dict], top: int = 10) -> List[dict]:
    """The top-N slowest per-spec searches (``search.spec`` spans)."""

    specs = [s for s in _spans(events) if s["name"] == "search.spec"]
    specs.sort(key=lambda s: s["dur"], reverse=True)
    return [
        {
            "spec": s["attrs"].get("spec"),
            "dur_s": s["dur"] / 1e9,
            "worker": s.get("worker"),
            "attrs": s["attrs"],
        }
        for s in specs[:top]
    ]


def hit_ratio_timeline(events: List[dict], buckets: int = 10) -> List[dict]:
    """Evaluation-source mix (memo/store/exec) over trace-time buckets.

    Buckets the ``eval.spec``/``eval.guard`` spans by start time into
    ``buckets`` equal windows and reports, per window, how many
    evaluations were answered by the in-memory memo, the persistent
    store, or actually executed -- the cache/store hit ratio over time.
    An evaluation's source is its ``cache.lookup`` child's ``hit``: a hit
    whose own ``store.lookup`` child hit came from the store.
    """

    spans = _spans(events)
    evals = [s for s in spans if s["name"] in ("eval.spec", "eval.guard")]
    if not evals:
        return []
    parents = {s["id"]: s.get("parent") for s in spans}
    source: Dict[str, str] = {}
    for span in spans:
        if span["name"] == "cache.lookup" and span["attrs"].get("hit"):
            source.setdefault(span.get("parent"), "memo")
        elif span["name"] == "store.lookup" and span["attrs"].get("hit"):
            source[parents.get(span.get("parent"))] = "store"
    start = min(s["ts"] for s in evals)
    end = max(s["ts"] for s in evals)
    width = max((end - start) // buckets + 1, 1)
    timeline = [
        {"bucket": i, "memo": 0, "store": 0, "exec": 0, "hit_ratio": 0.0}
        for i in range(buckets)
    ]
    for span in evals:
        index = min((span["ts"] - start) // width, buckets - 1)
        timeline[index][source.get(span["id"], "exec")] += 1
    for entry in timeline:
        total = entry["memo"] + entry["store"] + entry["exec"]
        entry["hit_ratio"] = (entry["memo"] + entry["store"]) / total if total else 0.0
    return timeline


def summarize(path: str, top: int = 10) -> Dict[str, Any]:
    """Full summary dict for one trace file."""

    header, events = load_trace(path)
    return {
        "header": header,
        "events": len(events),
        "breakdown": phase_breakdown(events),
        "span_totals": span_totals(events),
        "slowest_specs": slowest_specs(events, top=top),
        "hit_ratio_timeline": hit_ratio_timeline(events),
    }


def format_summary(summary: Dict[str, Any]) -> str:
    """Human-readable rendering of :func:`summarize`'s dict."""

    lines: List[str] = []
    breakdown = summary["breakdown"]
    root = breakdown["root"]
    if root is None:
        lines.append("no root span (trace has no session.run?)")
    else:
        lines.append(f"{root['name']}: {root['dur_s']:.3f}s total")
        for name, entry in sorted(
            breakdown["phases"].items(), key=lambda kv: -kv[1]["total_ns"]
        ):
            lines.append(
                f"  {name:<14} {entry['total_s']:>9.3f}s "
                f"({entry['share'] * 100:5.1f}%)  x{entry['count']}"
            )
        lines.append(f"  phase coverage: {breakdown['coverage'] * 100:.1f}%")
    lines.append("")
    lines.append("span totals:")
    for name, entry in sorted(
        summary["span_totals"].items(), key=lambda kv: -kv[1]["total_ns"]
    ):
        lines.append(f"  {name:<14} {entry['total_s']:>9.3f}s  x{entry['count']}")
    if summary["slowest_specs"]:
        lines.append("")
        lines.append("slowest specs:")
        for spec in summary["slowest_specs"]:
            lines.append(f"  {spec['dur_s']:>9.3f}s  {spec['spec']}")
    timeline = summary["hit_ratio_timeline"]
    if timeline:
        lines.append("")
        lines.append("eval source timeline (memo+store hit ratio per window):")
        for entry in timeline:
            lines.append(
                f"  [{entry['bucket']}] memo={entry['memo']} store={entry['store']} "
                f"exec={entry['exec']}  hit={entry['hit_ratio'] * 100:5.1f}%"
            )
    return "\n".join(lines)


def to_chrome(path: str) -> Dict[str, Any]:
    """Convert a trace to Chrome trace-event JSON (Perfetto-loadable).

    Spans become complete events (``ph: "X"``), instants become ``ph:
    "i"``; timestamps are microseconds relative to the earliest event so
    the viewer's origin is t=0.  Each worker maps to its own ``tid``.
    """

    header, events = load_trace(path)
    if not events:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    origin = min(e["ts"] for e in events)
    tids: Dict[str, int] = {}
    chrome: List[dict] = []
    for event in events:
        worker = str(event.get("worker", "0"))
        tid = tids.setdefault(worker, len(tids) + 1)
        ts_us = (event["ts"] - origin) / 1000.0
        if event["kind"] == "span":
            chrome.append(
                {
                    "name": event["name"],
                    "ph": "X",
                    "ts": ts_us,
                    "dur": event["dur"] / 1000.0,
                    "pid": header.get("pid", 1),
                    "tid": tid,
                    "args": event.get("attrs", {}),
                }
            )
        else:
            chrome.append(
                {
                    "name": event["name"],
                    "ph": "i",
                    "s": "t",
                    "ts": ts_us,
                    "pid": header.get("pid", 1),
                    "tid": tid,
                    "args": event.get("attrs", {}),
                }
            )
    chrome.extend(
        {
            "name": "thread_name",
            "ph": "M",
            "pid": header.get("pid", 1),
            "tid": tid,
            "args": {"name": f"worker {worker}"},
        }
        for worker, tid in tids.items()
    )
    return {"traceEvents": chrome, "displayTimeUnit": "ms"}
