"""Tests for the parallel synthesis subsystem (repro.synth.parallel):
serial-vs-pooled cell equivalence (programs, counters and traces), sweep-cell
distribution, bounded cell waits, the two-process SQLite store round-trip,
cross-run solution hints, and fork hygiene."""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.benchmarks import get_benchmark, run_benchmark
from repro.interp import Interpreter
from repro.synth import SynthConfig, SynthesisSession
from repro.synth.cache import CacheStats
from repro.synth.search import SearchStats

#: Multi-spec registry benchmarks cheap enough for pooled tests.
FAST = ["S4", "S5"]


# ---------------------------------------------------------------------------
# Serial-vs-pooled cell equivalence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("benchmark_id", FAST + ["S7", "A1"])
def test_parallel_run_synthesizes_identical_programs(benchmark_id):
    """A warm cell run on a worker's persistent session synthesizes the
    program an in-process run does."""

    config = SynthConfig(timeout_s=60)
    with SynthesisSession(config) as session:
        serial = session.run(benchmark_id)
    with SynthesisSession(config, parallel=2) as session:
        (entry,) = session.sweep([benchmark_id], warm=True)
    assert entry.success == serial.success
    assert entry.result.timed_out == serial.timed_out
    assert entry.result.program == serial.program


@pytest.mark.parametrize("benchmark_id", ["S1", "S4", "S5", "S7", "A1"])
def test_parallel_counters_equal_serial_totals(benchmark_id):
    """A pooled cold cell reports exactly the serial cold cell's counters.

    Workers are forked (same interpreter state and hash seed) and a cold
    cell builds its problem afresh, so the search, memo and snapshot
    counters must all match, not just the program.
    """

    config = SynthConfig(timeout_s=60)
    with SynthesisSession(config) as session:
        (serial,) = session.sweep([benchmark_id], warm=False)
    with SynthesisSession(config, parallel=2) as session:
        (pooled,) = session.sweep([benchmark_id], warm=False)
    assert pooled.success and serial.success
    assert pooled.result.program == serial.result.program
    assert pooled.result.stats.as_dict() == serial.result.stats.as_dict()
    assert (
        pooled.result.cache_stats.as_dict() == serial.result.cache_stats.as_dict()
    )
    assert serial.result.state_stats is not None
    assert (
        pooled.result.state_stats.as_dict() == serial.result.state_stats.as_dict()
    )


def test_session_run_starts_no_pool():
    """``run`` always executes in-process, whatever the session's
    ``parallel`` setting: only sweeps use the worker pool."""

    children_before = set(multiprocessing.active_children())
    with SynthesisSession(SynthConfig(timeout_s=60), parallel=2) as session:
        result = session.run("S4")
        assert session._executor is None
        assert set(multiprocessing.active_children()) == children_before
    assert result.success


def test_run_benchmark_warm_parallel_raises():
    """Warm repetitions share one session, so they cannot be pooled; asking
    for it fails loudly instead of silently running serially."""

    with pytest.raises(ValueError, match="warm_state"):
        run_benchmark(
            get_benchmark("S4"), SynthConfig(timeout_s=60), runs=2, parallel=2
        )


def test_run_benchmark_cold_parallel_distributes_runs():
    benchmark = get_benchmark("S4")
    config = SynthConfig(timeout_s=60)
    serial = run_benchmark(benchmark, config, runs=3, warm_state=False)
    parallel = run_benchmark(
        benchmark, config, runs=3, warm_state=False, parallel=2
    )
    assert parallel.success
    assert parallel.program_text == serial.program_text
    assert len(parallel.times_s) == len(serial.times_s) == 3


_DEAD_WORKER_SCRIPT = textwrap.dedent(
    """
    import os

    import repro.synth.parallel as parallel
    from repro.synth import SynthConfig, SynthesisSession

    def die(task):
        os._exit(1)

    # Patched before the pool forks, so every worker dies on its first task.
    parallel._worker_call = die
    with SynthesisSession(SynthConfig(timeout_s=3), parallel=2) as session:
        (entry,) = session.sweep(["S4"], warm=False)
    print("timed_out", entry.result.timed_out, "success", entry.success)
    """
)


def test_dead_worker_times_out_instead_of_hanging():
    """A worker that exits mid-cell never completes its pool future; the
    parent's wait on the cell is bounded by the cell's ``timeout_s``, so the
    sweep reports a timed-out cell instead of hanging.  Runs in a subprocess
    (its own session group) so a hang fails the test and cannot leak
    workers."""

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-c", _DEAD_WORKER_SCRIPT],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=15)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("parallel sweep hung on a dead worker past its 3 s budget")
    assert proc.returncode == 0, err
    assert "timed_out True success False" in out


# ---------------------------------------------------------------------------
# Parallel sweeps
# ---------------------------------------------------------------------------


def test_parallel_sweep_matches_serial_order_and_programs():
    config = SynthConfig(timeout_s=60)
    variants = [("base", {}), ("class", {"effect_precision": "class"})]
    with SynthesisSession(config) as session:
        serial = session.sweep(FAST, variants, warm=False)
    with SynthesisSession(config, parallel=2) as session:
        parallel = session.sweep(FAST, variants, warm=False)
    assert [(e.label, e.variant) for e in parallel] == [
        (e.label, e.variant) for e in serial
    ]
    for serial_entry, parallel_entry in zip(serial, parallel):
        assert parallel_entry.success == serial_entry.success
        assert parallel_entry.result.program == serial_entry.result.program


def test_parallel_warm_sweep_matches_cold_programs():
    config = SynthConfig(timeout_s=60)
    cells = FAST * 2
    with SynthesisSession(config) as session:
        serial = session.sweep(cells, warm=False)
    with SynthesisSession(config, parallel=2) as session:
        parallel = session.sweep(cells, warm=True)
    for serial_entry, parallel_entry in zip(serial, parallel):
        assert parallel_entry.result.program == serial_entry.result.program


def test_parallel_sweep_interleaves_ad_hoc_problems():
    """Non-registry sources run in the parent at their sweep position."""

    config = SynthConfig(timeout_s=60)
    problem = get_benchmark("S1").build()
    with SynthesisSession(config, parallel=2) as session:
        entries = session.sweep(["S4", problem, "S5"], warm=True)
    assert [entry.label for entry in entries] == ["S4", problem.name, "S5"]
    assert all(entry.success for entry in entries)


# ---------------------------------------------------------------------------
# Store sharing across processes
# ---------------------------------------------------------------------------


def test_two_process_sqlite_store_round_trip(tmp_path):
    """A worker pool populates the SQLite store; a fresh session hits it."""

    path = str(tmp_path / "outcomes.sqlite")
    config = SynthConfig(timeout_s=60)
    with SynthesisSession(config, store=path, parallel=2) as pool_session:
        entries = pool_session.sweep(FAST, warm=True)
    assert all(entry.success for entry in entries)

    with SynthesisSession(config, store=path) as fresh:
        assert fresh.store.stats.loaded > 0
        results = {bid: fresh.run(bid) for bid in FAST}
    for bid, result in results.items():
        assert result.success
        assert result.stats.store_hits >= 1, bid
        serial = SynthesisSession(config)
        try:
            assert result.program == serial.run(bid).program
        finally:
            serial.close()


# ---------------------------------------------------------------------------
# Cross-run solution hints
# ---------------------------------------------------------------------------


def test_session_repeats_reuse_solutions_without_searching():
    config = SynthConfig(timeout_s=60)
    with SynthesisSession(config) as session:
        first = session.run("S4")
        second = session.run("S4")
    assert second.program == first.program
    assert second.stats.hint_reuses > 0
    # Hints replace the per-spec searches (the merge phase's guard
    # syntheses still expand), so the repeat does strictly less work.
    assert second.stats.expansions < first.stats.expansions
    assert second.stats.evaluated < first.stats.evaluated


def test_hints_do_not_cross_configs():
    with SynthesisSession(SynthConfig(timeout_s=60)) as session:
        session.run("S4")
        coarse = session.run("S4", effect_precision="class")
    # The precision variant runs on a derived problem with its own hint
    # space, so its first run must have searched.
    assert coarse.stats.hint_reuses == 0


# ---------------------------------------------------------------------------
# Pickle safety of per-node memo slots
# ---------------------------------------------------------------------------


def test_ast_memo_slots_are_dropped_on_pickle(orm_class_table):
    """Compiled closures and type memos must never cross process boundaries.

    Workers receive ASTs by pickle; a compiled closure (which may capture a
    dispatch cache over the parent's class table) or a type/free-var memo
    smuggled through would at best be stale and at worst unpicklable.  A
    node pickles as its class and fields only -- this pins that contract
    for every consumer of the per-node memo slot.
    """

    import pickle

    from repro.analysis.footprint import footprint
    from repro.interp.compile import compile_node, is_compiled
    from repro.lang import ast as A
    from repro.lang import types as T
    from repro.lang.resolve import alpha_key
    from repro.typesys.typecheck import check_expr

    expr = A.Let("v", A.IntLit(5), A.call(A.Var("v"), "+", A.IntLit(1)))
    # Populate every per-node memo the evaluation pipeline writes.
    compile_node(expr)
    check_expr(expr, {}, orm_class_table)
    footprint(expr, {}, orm_class_table)
    alpha_key(expr)
    holed = A.Seq(expr, A.TypedHole(T.INT))
    A.first_hole(holed)
    assert is_compiled(expr)
    for kind in ("type", "footprint", "alpha", "compiled"):
        assert A.node_memo(expr, kind), kind
    assert A.node_memo(holed, "first_hole")

    revived_holed = pickle.loads(pickle.dumps(holed))
    for node in A.walk(revived_holed):
        assert node._memo is None, f"pickled node carries memos: {node!r}"

    # The revived tree is fully usable: it evaluates (recompiling fresh
    # closures on this side of the boundary) and typechecks.
    revived = revived_holed.first
    interp = Interpreter(orm_class_table, backend="compiled")
    assert interp.eval(revived) == 6
    assert check_expr(revived, {}, orm_class_table) == T.INT


def test_pickled_program_evaluates_identically_after_compilation(orm_class_table):
    import pickle

    from repro.interp.compile import compile_node, is_compiled
    from repro.lang import ast as A

    program = A.MethodDef(
        "m", ("arg0",), A.call(A.Var("arg0"), "+", A.IntLit(2))
    )
    compile_node(program.body)
    before = Interpreter(orm_class_table, backend="compiled").call_program(program, 3)
    revived = pickle.loads(pickle.dumps(program))
    assert not is_compiled(revived.body)
    after = Interpreter(orm_class_table, backend="compiled").call_program(revived, 3)
    assert before == after == 5


# ---------------------------------------------------------------------------
# Counter export completeness
# ---------------------------------------------------------------------------


def test_cache_stats_as_dict_and_since_cover_every_counter():
    """`as_dict`/`since` round-trip every field (bench report plumbing)."""

    fields = [f.name for f in dataclasses.fields(CacheStats)]
    stats = CacheStats(**{name: i + 1 for i, name in enumerate(fields)})
    assert set(stats.as_dict()) == set(fields)
    delta = stats.since(CacheStats())
    assert delta.as_dict() == stats.as_dict()


def test_search_stats_as_dict_covers_every_counter():
    fields = {f.name for f in dataclasses.fields(SearchStats)}
    assert set(SearchStats().as_dict()) == fields


# ---------------------------------------------------------------------------
# Trace absorption across workers
# ---------------------------------------------------------------------------


def _span_multiset(path):
    """Spans as a (name, attrs) multiset: ids, worker tags, parent links and
    timings aside -- exactly what serial/parallel runs must agree on."""

    import collections

    from repro.obs.tool import load_trace

    _, events = load_trace(path)
    return collections.Counter(
        (e["name"], tuple(sorted(e["attrs"].items())))
        for e in events
        if e["kind"] == "span"
    )


def test_parallel_trace_merge_matches_serial_span_set(tmp_path):
    """A traced ``parallel=2`` cold sweep must absorb the workers' cell spans
    into the same span set a serial sweep emits, and its cells must report
    the serial cells' metrics (timing histograms aside)."""

    serial_path = str(tmp_path / "serial.jsonl")
    parallel_path = str(tmp_path / "parallel.jsonl")
    config = SynthConfig(timeout_s=60)
    with SynthesisSession(
        dataclasses.replace(config, trace_path=serial_path)
    ) as session:
        serial = session.sweep(FAST, warm=False)
    with SynthesisSession(
        dataclasses.replace(config, trace_path=parallel_path), parallel=2
    ) as session:
        parallel = session.sweep(FAST, warm=False)
    for serial_entry, parallel_entry in zip(serial, parallel):
        assert parallel_entry.success and serial_entry.success
        assert parallel_entry.result.program == serial_entry.result.program
        assert (
            parallel_entry.result.metrics["stats"]
            == serial_entry.result.metrics["stats"]
        )
    assert _span_multiset(parallel_path) == _span_multiset(serial_path)

    # Worker spans really crossed the process boundary: the merged trace
    # carries more than one worker tag.
    from repro.obs.tool import load_trace

    _, events = load_trace(parallel_path)
    assert len({e["worker"] for e in events}) > 1


# ---------------------------------------------------------------------------
# Fork hygiene
# ---------------------------------------------------------------------------


def test_pool_creation_freezes_across_fork_and_unfreezes_parent():
    """Workers inherit the parent heap frozen; the parent is restored.

    The freeze-across-fork keeps a worker's first full collection from
    traversing (and copy-on-write copying) every pre-fork page; the parent
    must unfreeze right after so its own collection behavior is unchanged.
    """

    import gc

    from repro.synth.parallel import ParallelExecutor

    assert gc.get_freeze_count() == 0
    executor = ParallelExecutor(2, base_config=SynthConfig(timeout_s=60))
    with executor:
        executor._get_pool()
        assert gc.get_freeze_count() == 0
        # The pool still works after the freeze/unfreeze dance.
        future = executor.submit_cell(
            "S4",
            get_benchmark("S4").make_config(SynthConfig(timeout_s=60)),
            fresh=False,
            runs=1,
        )
        payloads = future.get()
    assert payloads and payloads[0].success
