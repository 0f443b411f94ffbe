"""Observability gate: tracing leaves no trace when off, and traced runs
are well-formed (repro.obs).

Tracing is applied from the outside: a session with ``trace_path`` installs
span wrappers over the engine entry points listed in
``repro.obs.trace.SPANS`` and restores them when it closes.  Two claims keep
that honest, per selected registry benchmark:

1. **Disabled tracing is the untraced engine.**  With no traced session
   live, every entry point -- in its defining module or class, on every
   overriding subclass and in every ``repro`` module that imported it by
   name -- ``is`` the object it was before any tracing
   (``trace.entry_points()``).  The check runs after a traced run that
   synthesized a program *and* after a traced run that ended in
   ``SynthesisTimeout``, so zero disabled overhead holds by construction,
   not by a timing bound.

2. **Enabled tracing is well-formed.**  The traced run is validated through
   :mod:`repro.obs.tool`: schema-versioned header, parseable spans, a
   per-phase breakdown covering >= 95% of the root ``session.run`` wall
   time, and a Chrome trace-event export that is valid JSON with a
   non-empty ``traceEvents`` list.

The ``off`` arm synthesizes untraced, the ``on`` arm traced; both must
synthesize byte-identical programs.  All claims fold into ``meets_target``;
``--check`` (used by ``scripts/ci.sh``) exits non-zero unless every
selected benchmark passes.  The report/CLI plumbing shared with the other
gates lives in :mod:`ab_harness`; the persistent-store options are accepted
but unused.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs.py --out BENCH_obs.json
    PYTHONPATH=src python benchmarks/bench_obs.py --check   # CI gate
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
for _path in (_SRC, _HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from ab_harness import ABHarness, SCHEMA_VERSION  # noqa: E402,F401
from repro.benchmarks import get_benchmark  # noqa: E402
from repro.obs import tool as trace_tool  # noqa: E402
from repro.obs import trace  # noqa: E402
from repro.synth.config import SynthConfig  # noqa: E402
from repro.synth.session import SynthesisSession  # noqa: E402

DEFAULT_BENCHMARKS = ("S6", "A9", "A4")

#: Phase coverage the traced run must reach (the acceptance floor).
_MIN_COVERAGE = 0.95

#: Timeout of the traced run that must end in ``SynthesisTimeout``.
_EXPIRED_TIMEOUT_S = 1e-9

_RUN_KEYS = frozenset({"success", "elapsed_s", "traced"})


def _restored(before: Dict[object, object]) -> bool:
    """Every entry point is bound to exactly its pre-tracing object."""

    after = trace.entry_points()
    return after.keys() == before.keys() and all(
        after[where] is obj for where, obj in before.items()
    )


def _validate_trace(path: str, success: bool) -> Dict[str, object]:
    """The trace well-formedness fields of one traced ``session.run``."""

    try:
        summary = trace_tool.summarize(path)
        chrome = trace_tool.to_chrome(path)
    except trace_tool.TraceError as error:
        return {
            "trace_valid": False,
            "trace_events": 0,
            "trace_coverage": 0.0,
            "trace_error": str(error),
        }
    breakdown = summary["breakdown"]
    chrome_ok = bool(
        isinstance(json.loads(json.dumps(chrome)), dict) and chrome.get("traceEvents")
    )
    coverage = float(breakdown["coverage"])
    root = breakdown["root"]
    return {
        "trace_valid": bool(
            success
            and root is not None
            and root["name"] == "session.run"
            and coverage >= _MIN_COVERAGE
            and chrome_ok
        ),
        "trace_events": int(summary["events"]),
        "trace_coverage": round(coverage, 4),
    }


def _traced_runs(benchmark_id: str, config: SynthConfig) -> Tuple[Dict[str, object], Any]:
    """A traced run and a traced timed-out run, each followed by the
    entry-point identity check; returns the fields and the first result."""

    before = trace.entry_points()
    fd, path = tempfile.mkstemp(prefix=f"obs_{benchmark_id}_", suffix=".jsonl")
    os.close(fd)
    try:
        with SynthesisSession(replace(config, trace_path=path)) as session:
            result = session.run(benchmark_id)
        fields = _validate_trace(path, result.success)
        fields["restored_after_run"] = _restored(before)
        expired = replace(config, trace_path=path, timeout_s=_EXPIRED_TIMEOUT_S)
        with SynthesisSession(expired) as session:
            fields["timeout_traced"] = session.run(benchmark_id).timed_out
        fields["restored_after_timeout"] = _restored(before)
    finally:
        os.unlink(path)
    return fields, result


def _run(
    benchmark_id: str,
    timeout_s: float,
    enabled: bool,
    store_path: Optional[str] = None,
) -> Dict[str, object]:
    config = get_benchmark(benchmark_id).make_config(SynthConfig(timeout_s=timeout_s))
    started = time.perf_counter()
    if enabled:
        section, result = _traced_runs(benchmark_id, config)
    else:
        section = {}
        with SynthesisSession(config) as session:
            result = session.run(benchmark_id)
    section.update(
        {
            "success": bool(result.success),
            "elapsed_s": round(time.perf_counter() - started, 4),
            "traced": enabled,
            "_program": result.program,
            "_text": result.pretty() if result.program is not None else None,
        }
    )
    return section


def _diff(
    off: Dict[str, object], on: Dict[str, object], identical: bool
) -> Dict[str, object]:
    restored = bool(
        on.get("restored_after_run")
        and on.get("restored_after_timeout")
        and on.get("timeout_traced")
    )
    trace_valid = bool(on.get("trace_valid", False))
    return {
        "entry_points_restored": restored,
        "trace_valid": trace_valid,
        "trace_coverage": on.get("trace_coverage", 0.0),
        "meets_target": bool(
            identical and off["success"] and on["success"] and restored and trace_valid
        ),
    }


HARNESS = ABHarness(
    generated_by="benchmarks/bench_obs.py",
    section_prefix="obs",
    target=(
        "every traced entry point is the original object once tracing stops "
        "(also after a timed-out run), identical programs, traced run >= "
        f"{_MIN_COVERAGE:.0%} phase coverage"
    ),
    run_keys=_RUN_KEYS,
    extra_entry_keys=frozenset(
        {"entry_points_restored", "trace_valid", "trace_coverage"}
    ),
    run=_run,
    diff=_diff,
    fail_identical="the traced run synthesized a different program",
    ok_noun="restored-entry-point + trace-validity target",
)


def compare_benchmark(
    benchmark_id: str,
    timeout_s: float,
    store_path: Optional[str] = None,
) -> Dict[str, object]:
    return HARNESS.compare_benchmark(benchmark_id, timeout_s, store_path)


def build_report(
    benchmark_ids: Sequence[str],
    timeout_s: float,
    store_path: Optional[str] = None,
) -> Dict[str, object]:
    return HARNESS.build_report(benchmark_ids, timeout_s, store_path)


def validate_report(report: Dict[str, object]) -> List[str]:
    return HARNESS.validate_report(report)


def main(argv: Optional[Sequence[str]] = None) -> int:
    return HARNESS.main(argv, __doc__, DEFAULT_BENCHMARKS)


if __name__ == "__main__":
    raise SystemExit(main())
