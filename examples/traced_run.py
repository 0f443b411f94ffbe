"""Observability: trace a synthesis run and profile where its time went.

Setting ``SynthConfig.trace_path`` (or the ``REPRO_TRACE`` environment
variable) makes the session write a JSONL trace of the whole pipeline --
phases, per-spec searches, guard synthesis, spec evaluations and their
memo and store lookups -- through :mod:`repro.obs.trace`, which wraps the
engine's entry points for the session's lifetime only.  Every run
also carries a unified metrics snapshot (:mod:`repro.obs.metrics`) on
``result.metrics``, and :mod:`repro.obs.tool` turns the trace into a
per-phase profile or a Chrome trace-event file.

Run with::

    python examples/traced_run.py

or trace any other entry point without touching code::

    REPRO_TRACE=run.trace.jsonl python examples/quickstart.py
    python scripts/trace_tool.py summarize run.trace.jsonl
"""

from __future__ import annotations

import json
import os
import tempfile

from repro.obs.tool import format_summary, summarize, to_chrome
from repro.synth import SynthConfig, SynthesisSession


def main() -> None:
    trace_path = os.path.join(tempfile.mkdtemp(), "run.trace.jsonl")
    config = SynthConfig(timeout_s=60, trace_path=trace_path)

    # The session owns the tracer: its span wrappers are installed on
    # entry and removed on exit, leaving the engine's own functions in
    # place.  A parallel session merges worker-side spans into the same
    # file.
    with SynthesisSession(config) as session:
        result = session.run("A1")
    print(f"synthesized {result.problem.name}:")
    print(result.pretty())
    print()

    # Every run exports a unified metrics snapshot -- the stats of every
    # engine subsystem plus per-phase wall-time histograms -- whether or
    # not tracing is on.
    phases = result.metrics["phases"]
    print("phase wall time (from result.metrics):")
    for name in sorted(phases, key=lambda n: -phases[n]["total_s"]):
        print(f"  {name:<12} {phases[name]['total_s']:.3f}s x{phases[name]['count']}")
    print()

    # The trace file breaks the same run down span by span.
    print(format_summary(summarize(trace_path)))

    # And exports to Chrome trace-event JSON for chrome://tracing/Perfetto.
    chrome_path = trace_path.replace(".jsonl", ".chrome.json")
    with open(chrome_path, "w") as fh:
        json.dump(to_chrome(trace_path), fh)
    print(f"\nchrome trace written to {chrome_path}")


if __name__ == "__main__":
    main()
