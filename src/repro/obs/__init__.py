"""Observability layer: structured tracing, unified metrics, profiling.

``repro.obs`` is the zero-dependency cross-cutting layer the synthesis
engine reports itself through:

- :mod:`repro.obs.trace` -- a span-based tracer (monotonic timestamps,
  span/parent ids, JSONL sink) applied from the outside: a table maps each
  span to an engine entry point, and a traced session wraps those entry
  points for its lifetime only.  The engine holds no tracing code, so
  untraced runs execute exactly the engine's own functions.
- :mod:`repro.obs.metrics` -- a registry of counters/gauges/histograms
  that wraps the engine's existing stats dataclasses behind one
  ``snapshot()`` export path, plus per-phase wall-time histograms.
- :mod:`repro.obs.tool` -- trace analysis (per-phase breakdowns, slowest
  specs, hit-ratio timelines) and Chrome trace-event export, fronted by
  ``scripts/trace_tool.py``.
"""

from repro.obs import metrics, tool, trace

__all__ = ["metrics", "tool", "trace"]
