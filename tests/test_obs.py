"""Tests for the observability subsystem (repro.obs): span-based tracing,
the unified metrics registry, the trace analysis tooling, and the traced
``session.run`` end-to-end contract (root span, phase coverage, Chrome
export)."""

from __future__ import annotations

import dataclasses
import gc
import json
import os

import pytest

from repro.obs import trace
from repro.obs import tool
from repro.obs.metrics import (
    METRICS_SCHEMA_VERSION,
    MetricsRegistry,
    merge_snapshots,
    stats_sources,
)
from repro.synth import SynthConfig, SynthesisSession


@pytest.fixture(autouse=True)
def _restore_tracer():
    """Never leak an enabled tracer into other tests (module-global state)."""

    yield
    if trace.TRACER is not trace.NULL:
        trace.disable()


# ---------------------------------------------------------------------------
# Tracer lifecycle and span model
# ---------------------------------------------------------------------------


def test_enable_writes_schema_versioned_header_then_complete_spans(tmp_path):
    path = str(tmp_path / "run.jsonl")
    tracer = trace.enable(path)
    assert trace.TRACER is tracer
    # A second tracer never clobbers the live one: callers nest instead.
    assert trace.enable(str(tmp_path / "other.jsonl")) is None
    outer = tracer.begin("outer", label="o")
    inner = tracer.begin("inner", deep=True)
    tracer.finish(inner)
    tracer.finish(outer)
    trace.disable()
    assert trace.TRACER is trace.NULL
    assert not (tmp_path / "other.jsonl").exists()

    lines = [json.loads(line) for line in open(path)]
    assert lines[0]["kind"] == "header"
    assert lines[0]["schema"] == trace.TRACE_SCHEMA_VERSION
    # Spans are written complete at exit, so inner precedes outer.
    assert [e["name"] for e in lines[1:]] == ["inner", "outer"]
    inner, outer = lines[1:]
    assert outer["kind"] == inner["kind"] == "span"
    assert outer["parent"] is None
    assert inner["parent"] == outer["id"]
    assert inner["attrs"] == {"deep": True}
    assert outer["attrs"] == {"label": "o"}
    assert outer["dur"] >= inner["dur"] >= 0
    assert all(e["worker"] == "0" for e in lines[1:])


def test_finish_pops_through_escaped_inner_spans():
    tracer = trace.Tracer(None)
    outer = tracer.begin("outer")
    tracer.begin("inner")  # never finished (e.g. an exception skipped it)
    tracer.finish(outer)
    assert tracer.current is None
    assert [e["name"] for e in tracer.export()] == ["outer"]


def test_absorb_reparents_worker_roots_onto_open_span():
    worker = trace.Tracer(None, worker="w1")
    search = worker.begin("search.spec", spec="s")
    worker.finish(worker.begin("eval.spec", spec="s"))
    worker.finish(search)
    shipped = worker.export()

    parent = trace.Tracer(None)
    phase = parent.begin("phase.specs")
    parent.absorb(shipped)
    parent.finish(phase)
    merged = {e["name"]: e for e in parent.export()}
    # The worker's root span hangs off the absorbing parent span; the
    # worker-internal link and the worker-tagged ids are preserved.
    assert merged["search.spec"]["parent"] == phase["id"]
    assert merged["eval.spec"]["parent"] == merged["search.spec"]["id"]
    assert merged["search.spec"]["id"].startswith("w1:")
    assert merged["search.spec"]["worker"] == "w1"


def test_reset_after_fork_drops_tracer_without_closing(tmp_path):
    path = str(tmp_path / "run.jsonl")
    tracer = trace.enable(path)
    trace.reset_after_fork()
    assert trace.TRACER is trace.NULL
    # The parent-side file object is untouched; closing it still works.
    tracer.close()
    assert json.loads(open(path).readline())["kind"] == "header"


# ---------------------------------------------------------------------------
# Outside-in span wrappers
# ---------------------------------------------------------------------------


def _assert_pristine(before):
    """Every entry point is bound to exactly the object it was before."""

    after = trace.entry_points()
    assert after.keys() == before.keys()
    for where, obj in before.items():
        assert after[where] is obj, where


def test_entry_points_are_wrapped_only_while_a_traced_session_lives(tmp_path):
    from repro.synth import goal, search

    before = trace.entry_points()
    # Bound in the defining module and wherever it was imported by name.
    original = before["repro.synth.goal", "evaluate_spec"]
    assert before["repro.synth.search", "evaluate_spec"] is original
    assert ("repro.synth.cache.SynthCache", "lookup_spec") in before
    assert not any(hasattr(obj, "__wrapped__") for obj in before.values())
    config = SynthConfig(timeout_s=60, trace_path=str(tmp_path / "run.jsonl"))
    with SynthesisSession(config):
        assert goal.evaluate_spec is not original
        assert goal.evaluate_spec.__wrapped__ is original
        assert search.evaluate_spec is goal.evaluate_spec
    _assert_pristine(before)


def test_timed_out_and_raising_traced_runs_restore_entry_points(tmp_path):
    before = trace.entry_points()
    path = str(tmp_path / "run.jsonl")
    with SynthesisSession(SynthConfig(timeout_s=1e-9, trace_path=path)) as session:
        result = session.run("A1")
        with pytest.raises(KeyError):
            session.run("no-such-benchmark")
    assert result.timed_out
    assert trace.TRACER is trace.NULL
    _assert_pristine(before)
    # Spans raised through are still written, parented and complete.
    _, events = tool.load_trace(path)
    roots = [e for e in events if e["parent"] is None]
    assert [e["name"] for e in roots] == ["session.run", "session.run"]
    searches = [e for e in events if e["name"] == "search.spec"]
    assert searches and all("found" not in e["attrs"] for e in searches)


@pytest.mark.skipif(not os.path.exists("/proc/version"), reason="needs /proc")
def test_failed_session_init_leaves_no_tracer(tmp_path):
    import sqlite3

    before = trace.entry_points()
    orphan = tmp_path / "orphan.jsonl"
    with pytest.raises(sqlite3.OperationalError):
        SynthesisSession(SynthConfig(trace_path=str(orphan)), store="/proc/version")
    assert trace.TRACER is trace.NULL
    _assert_pristine(before)
    assert not orphan.exists()
    # A later traced session owns its own trace file again.
    path = str(tmp_path / "later.jsonl")
    with SynthesisSession(SynthConfig(timeout_s=60, trace_path=path)) as session:
        assert session.run("S1").success
    assert any(e["name"] == "session.run" for e in tool.load_trace(path)[1])


def test_session_close_stops_tracing_even_when_the_store_flush_fails(
    tmp_path, monkeypatch
):
    before = trace.entry_points()
    session = SynthesisSession(
        SynthConfig(timeout_s=60, trace_path=str(tmp_path / "run.jsonl")),
        store=str(tmp_path / "outcomes.sqlite"),
    )

    def broken_flush():
        raise OSError("disk full")

    monkeypatch.setattr(session.store, "flush", broken_flush)
    with pytest.raises(OSError):
        session.close()
    assert trace.TRACER is trace.NULL
    _assert_pristine(before)
    monkeypatch.undo()
    session.close()
    assert session.closed


def test_nested_cold_sweep_keeps_the_outer_sessions_wrappers(tmp_path):
    from repro.synth import goal

    path = str(tmp_path / "run.jsonl")
    with SynthesisSession(SynthConfig(timeout_s=60, trace_path=path)) as session:
        wrapped = goal.evaluate_spec
        # Each cold cell runs in an inner session whose config carries the
        # same trace_path; it nests instead of owning the tracer.
        assert session.sweep(["S1"], warm=False)[0].success
        assert goal.evaluate_spec is wrapped
        assert session.run("S4").success
    _, events = tool.load_trace(path)
    runs = [e for e in events if e["name"] == "session.run"]
    assert len(runs) == 2
    last = max(runs, key=lambda e: e["ts"])
    assert any(
        e["name"] == "eval.spec" and e["ts"] > last["ts"] for e in events
    )


def _timeline_totals(path):
    _, events = tool.load_trace(path)
    timeline = tool.hit_ratio_timeline(events)
    return tuple(sum(entry[k] for entry in timeline) for k in ("memo", "store", "exec"))


def _cache_totals(result):
    cache = result.metrics["stats"]["cache"]
    return (
        cache["spec_hits"] + cache["guard_hits"],
        cache["store_hits"],
        cache["spec_misses"] + cache["guard_misses"],
    )


def test_hit_ratio_timeline_matches_cold_cache_counters(tmp_path):
    path, result = _traced_run(tmp_path, "A1")
    assert _timeline_totals(path) == _cache_totals(result) == (7, 0, 390)


def test_hit_ratio_timeline_counts_store_hits(tmp_path):
    store = str(tmp_path / "outcomes.sqlite")
    with SynthesisSession(SynthConfig(timeout_s=60), store=store) as session:
        assert session.run("S4").success
    path = str(tmp_path / "run.jsonl")
    config = SynthConfig(timeout_s=60, trace_path=path)
    with SynthesisSession(config, store=store) as session:
        result = session.run("S4")
    totals = _timeline_totals(path)
    assert totals == _cache_totals(result)
    assert totals[1] > 0


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


def test_registry_instruments_and_snapshot_shape():
    registry = MetricsRegistry()
    registry.counter("evals").inc()
    registry.counter("evals").inc(4)
    registry.gauge("pool_size").set(2)
    registry.observe_phase("spec_search", 0.5)
    registry.observe_phase("spec_search", 1.5)
    snap = registry.snapshot()
    assert snap["schema_version"] == METRICS_SCHEMA_VERSION
    assert snap["counters"] == {"evals": 5}
    assert snap["gauges"] == {"pool_size": 2}
    hist = snap["phases"]["spec_search"]
    assert hist["count"] == 2
    assert hist["total_s"] == pytest.approx(2.0)
    assert hist["min_s"] == pytest.approx(0.5)
    assert hist["max_s"] == pytest.approx(1.5)
    assert hist["mean_s"] == pytest.approx(1.0)
    json.dumps(snap)  # JSON-able end to end


def test_attach_stats_rejects_non_dataclasses():
    with pytest.raises(TypeError):
        MetricsRegistry().attach_stats("bogus", object())


def test_attached_stats_are_live_references():
    from repro.synth.search import SearchStats

    registry = MetricsRegistry()
    stats = SearchStats()
    registry.attach_stats("search", stats)
    stats.expansions += 7
    assert registry.snapshot()["stats"]["search"]["expansions"] == 7


def test_merge_snapshots_combines_every_section():
    a_reg, b_reg = MetricsRegistry(), MetricsRegistry()
    a_reg.counter("evals").inc(2)
    a_reg.gauge("jobs").set(1)
    a_reg.observe_phase("run", 1.0)
    b_reg.counter("evals").inc(3)
    b_reg.counter("only_b").inc()
    b_reg.gauge("jobs").set(4)
    b_reg.observe_phase("run", 3.0)
    b_reg.observe_phase("merge", 0.25)
    merged = merge_snapshots(a_reg.snapshot(), b_reg.snapshot())
    assert merged["counters"] == {"evals": 5, "only_b": 1}
    assert merged["gauges"] == {"jobs": 4}  # last write wins
    run = merged["phases"]["run"]
    assert run["count"] == 2
    assert run["total_s"] == pytest.approx(4.0)
    assert run["min_s"] == pytest.approx(1.0)
    assert run["max_s"] == pytest.approx(3.0)
    assert run["mean_s"] == pytest.approx(2.0)
    assert merged["phases"]["merge"]["count"] == 1


# ---------------------------------------------------------------------------
# Registry field completeness over every stats dataclass
# ---------------------------------------------------------------------------


def _distinct_instances(stats_cls):
    """Two instances with distinct per-field values (``False``/``True`` for
    flags, so an ``or`` is distinguishable from keeping either side)."""

    a_values, b_values = {}, {}
    for index, field in enumerate(dataclasses.fields(stats_cls)):
        if field.type in ("int", int):
            a_values[field.name] = 2 * index + 1
            b_values[field.name] = 100 + index
        elif field.type in ("bool", bool):
            a_values[field.name] = False
            b_values[field.name] = True
        else:  # pragma: no cover - all counters are ints/bools today
            raise AssertionError(f"unexpected counter type {field.type!r}")
    return stats_cls(**a_values), stats_cls(**b_values)


@pytest.mark.parametrize("prefix", sorted(stats_sources()))
def test_registry_exports_and_merges_every_stats_field(prefix):
    """Adding a field to a stats dataclass must flow through the registry.

    The snapshot must export the new field, ``merge_snapshots`` must fold
    it (sum for counters, ``or`` for flags), and ``as_dict`` (the legacy
    export) must not have drifted from the dataclass fields.
    """

    stats_cls = stats_sources()[prefix]
    field_names = {f.name for f in dataclasses.fields(stats_cls)}
    a, b = _distinct_instances(stats_cls)

    a_registry, b_registry = MetricsRegistry(), MetricsRegistry()
    a_registry.attach_stats(prefix, a)
    b_registry.attach_stats(prefix, b)
    snap_a, snap_b = a_registry.snapshot(), b_registry.snapshot()
    assert set(snap_a["stats"][prefix]) == field_names

    merged = merge_snapshots(snap_a, snap_b)["stats"][prefix]
    for name in field_names:
        a_value, b_value = getattr(a, name), getattr(b, name)
        # Counters sum; flags (e.g. ``timed_out``) or together.
        expected = (
            (a_value or b_value) if isinstance(a_value, bool) else a_value + b_value
        )
        assert merged[name] == expected, f"{stats_cls.__name__}.{name}"

    if hasattr(a, "as_dict"):
        assert set(a.as_dict()) == field_names, (
            f"{stats_cls.__name__}.as_dict drifted from its dataclass fields"
        )


# ---------------------------------------------------------------------------
# Trace tooling
# ---------------------------------------------------------------------------


def test_load_trace_rejects_headerless_and_wrong_schema(tmp_path):
    headerless = tmp_path / "bad.jsonl"
    headerless.write_text('{"kind": "span", "name": "x"}\n')
    with pytest.raises(tool.TraceError, match="not a trace header"):
        tool.load_trace(str(headerless))

    wrong = tmp_path / "wrong.jsonl"
    wrong.write_text('{"kind": "header", "schema": 999}\n')
    with pytest.raises(tool.TraceError, match="schema"):
        tool.load_trace(str(wrong))

    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(tool.TraceError, match="empty trace"):
        tool.load_trace(str(empty))


def _traced_run(tmp_path, benchmark_id="S4"):
    path = str(tmp_path / "run.jsonl")
    config = SynthConfig(timeout_s=60, trace_path=path)
    # A collector pause inside the short run lands outside every phase span
    # and can pull coverage under its 0.95 bound; keep GC out of the run.
    gc.disable()
    try:
        with SynthesisSession(config) as session:
            result = session.run(benchmark_id)
    finally:
        gc.enable()
    assert trace.TRACER is trace.NULL  # the session owned + closed it
    assert result.success
    return path, result


def test_traced_session_run_summary_covers_phases(tmp_path):
    path, result = _traced_run(tmp_path)
    summary = tool.summarize(path)
    breakdown = summary["breakdown"]
    assert breakdown["root"]["name"] == "session.run"
    assert breakdown["root"]["attrs"]["problem"] == result.problem.name
    assert breakdown["root"]["attrs"]["success"] is True
    assert set(breakdown["phases"]) >= {"phase.setup", "phase.specs"}
    assert breakdown["coverage"] >= 0.95
    assert summary["events"] > 0
    assert summary["slowest_specs"], "search.spec spans missing"
    totals = summary["span_totals"]
    assert totals["eval.spec"]["count"] > 0
    # The human rendering mentions the phases and coverage line.
    rendered = tool.format_summary(summary)
    assert "session.run" in rendered and "phase coverage" in rendered


def test_traced_run_chrome_export_is_valid(tmp_path):
    path, _ = _traced_run(tmp_path)
    chrome = tool.to_chrome(path)
    payload = json.loads(json.dumps(chrome))
    assert payload["traceEvents"]
    phases = {e["ph"] for e in payload["traceEvents"]}
    assert "X" in phases  # complete spans
    for event in payload["traceEvents"]:
        assert event["ph"] in ("X", "i", "M")
        if event["ph"] == "X":
            assert event["ts"] >= 0 and event["dur"] >= 0


def test_trace_tool_cli_summarize_and_export(tmp_path, capsys):
    import importlib.util
    import os

    path, _ = _traced_run(tmp_path)
    spec = importlib.util.spec_from_file_location(
        "trace_tool_cli",
        os.path.join(os.path.dirname(__file__), "..", "scripts", "trace_tool.py"),
    )
    cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli)

    assert cli.main(["summarize", path, "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["breakdown"]["coverage"] >= 0.95

    out = str(tmp_path / "chrome.json")
    assert cli.main(["export-chrome", path, "--out", out]) == 0
    assert json.load(open(out))["traceEvents"]

    assert cli.main(["summarize", str(tmp_path / "missing.jsonl")]) == 2


def test_repro_trace_env_enables_tracing(tmp_path, monkeypatch):
    path = str(tmp_path / "env.jsonl")
    monkeypatch.setenv("REPRO_TRACE", path)
    config = SynthConfig(timeout_s=60)  # trace_path defaults from the env
    assert config.trace_path == path
    with SynthesisSession(config) as session:
        assert session.run("S1").success
    header, events = tool.load_trace(path)
    assert header["schema"] == trace.TRACE_SCHEMA_VERSION
    assert any(e["name"] == "session.run" for e in events)


# ---------------------------------------------------------------------------
# Metrics threaded through the engine
# ---------------------------------------------------------------------------


def test_run_result_carries_metrics_snapshot():
    with SynthesisSession(SynthConfig(timeout_s=60)) as session:
        result = session.run("S4")
    assert result.success
    metrics = result.metrics
    assert metrics["schema_version"] == METRICS_SCHEMA_VERSION
    assert set(metrics["stats"]) >= {"search", "cache", "state"}
    assert metrics["stats"]["search"]["evaluated"] == result.stats.evaluated
    assert metrics["stats"]["cache"]["spec_hits"] == result.cache_stats.spec_hits
    assert "run" in metrics["phases"] and metrics["phases"]["run"]["count"] == 1
    assert "spec_search" in metrics["phases"]


def test_benchmark_result_folds_metrics_across_runs():
    from repro.benchmarks import get_benchmark, run_benchmark

    result = run_benchmark(get_benchmark("S4"), SynthConfig(timeout_s=60), runs=2)
    assert result.success
    assert result.metrics is not None
    assert result.metrics["phases"]["run"]["count"] == 2
