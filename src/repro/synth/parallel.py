"""The multi-process synthesis execution layer: whole cells on a worker pool.

The pool's unit of work is one whole ``(problem, variant)`` cell -- a
complete :func:`~repro.synth.synthesizer.run_synthesis` run -- never a
piece of one.  Two callers submit cells:

* :meth:`SynthesisSession.sweep(..., parallel=N)
  <repro.synth.session.SynthesisSession.sweep>` distributes a sweep's
  registry cells, warm or cold;
* :func:`~repro.benchmarks.runner.run_benchmark` with ``warm_state=False``
  and ``parallel=N`` distributes a benchmark's isolated cold repetitions.

A single synthesis run always stays in one process.  Its specs are coupled
by Section 4 solution reuse (a later spec first re-tries earlier specs'
solutions), so fanning one run's searches out would start searches that
reuse then makes redundant; cells share nothing but the store, so they
parallelise without waste.

Fork determinism
----------------

Workers are forked from the parent: same interpreter state, same
string-hash seed (on which candidate-enumeration order depends).  The
work-list search is deterministic for a fixed problem and config, so a cell
run in a worker synthesizes exactly the program the same cell synthesizes
serially.  A cold cell builds a fresh problem in a throwaway store-less
session, exactly as it does serially, so it also reports the serial cold
cell's counters.  Each worker holds one persistent warm
:class:`~repro.synth.session.SynthesisSession`, so warm cells are warm *per
worker* and their counters reflect that worker's earlier cells.  Where
``fork`` is unavailable the pool falls back to ``spawn``, which keeps
results valid but may explore in a different order.

Store sharing
-------------

A worker's session opens the parent session's
:class:`~repro.synth.store.SpecOutcomeStore` by path (its SQLite upserts are
concurrent-safe) and flushes it after every cell, so outcomes executed in
one process are store hits in every other and in later sessions.  The
parent flushes its own connection before the pool starts.

Bounded waits
-------------

The parent collects cells in submission order through :func:`await_cell`,
which waits no longer than the cell's own synthesis budget (``timeout_s``
per run), counted from when the parent starts waiting on it: cells are
queued first-in first-out and awaited in order, so by then the cell has
been dispatched.  A worker that dies mid-cell never completes its future;
its wait expires and the cell reports ``timed_out`` instead of hanging the
sweep.  Only ``timeout_s=None`` waits without bound.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.lang import ast as A
from repro.obs import trace
from repro.synth.cache import CacheStats
from repro.synth.config import SynthConfig
from repro.synth.goal import Budget
from repro.synth.search import SearchStats
from repro.synth.state import StateStats
from repro.synth.synthesizer import SynthesisResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.synth.goal import SynthesisProblem


@dataclass
class CellTaskResult:
    """A worker's answer to one sweep/benchmark cell."""

    success: bool
    timed_out: bool
    program: Optional[A.MethodDef]
    elapsed_s: float
    stats: SearchStats
    cache_stats: Optional[CacheStats]
    state_stats: Optional[StateStats]
    #: The cell run's unified metrics snapshot (``SynthesisResult.metrics``).
    metrics: Optional[dict] = None
    #: Trace events collected in the worker (empty unless tracing is on).
    trace_events: List[dict] = field(default_factory=list)

    def to_result(self, problem: "SynthesisProblem") -> SynthesisResult:
        """Rebuild a :class:`SynthesisResult` around the parent's problem."""

        return SynthesisResult(
            problem=problem,
            success=self.success,
            program=self.program,
            elapsed_s=self.elapsed_s,
            timed_out=self.timed_out,
            stats=self.stats,
            cache_stats=self.cache_stats,
            state_stats=self.state_stats,
            metrics=self.metrics,
        )


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

_WORKER: Optional["_WorkerState"] = None


class _WorkerState:
    """Per-process state: one persistent session plus its store connection."""

    def __init__(self, base_config: SynthConfig, store_path: Optional[str]) -> None:
        from repro.synth.session import SynthesisSession

        # Workers never write the parent's trace file themselves: their
        # session must not re-open ``trace_path`` (the parent owns it), so
        # the path is stripped here.  The *task* configs keep it -- that is
        # the per-task "collect events for the parent" flag.
        self.session = SynthesisSession(
            replace(base_config, trace_path=None), store=store_path
        )


def _worker_init(base_config: SynthConfig, store_path: Optional[str]) -> None:
    global _WORKER
    # A forked worker inherits the parent's live tracer object, including
    # its open file handle, and its installed span wrappers; drop both
    # (without closing the parent's file).
    trace.reset_after_fork()
    _WORKER = _WorkerState(base_config, store_path)


def _worker_call(task: Tuple) -> List["CellTaskResult"]:
    """Run one cell task inside the pool; flushes the store afterwards.

    When the task's config carries a ``trace_path`` the parent is tracing:
    the worker collects the cell's spans in memory (tagged with a
    per-process worker id), with the span wrappers installed for the cell
    only, and ships them back on the cell's payloads for the parent to
    absorb into its trace.
    """

    collecting = task[1].trace_path is not None
    if collecting:
        trace.start_collecting(worker=f"w{os.getpid()}")
    try:
        return _run_cell_task(*task)
    finally:
        if collecting:
            trace.disable()
        store = _WORKER.session.store if _WORKER is not None else None
        if store is not None:
            store.flush()


def _run_cell_task(
    benchmark_id: str, config: SynthConfig, fresh: bool, runs: int = 1
) -> List[CellTaskResult]:
    """Run one benchmark cell ``runs`` times in this worker.

    A multi-run batch is the parallel unit of ``bench_parallel``: keeping
    one benchmark's repeats on one worker lets them share that worker's
    warm session instead of duplicating the cold work across the pool.
    """

    from repro.benchmarks import get_benchmark

    benchmark = get_benchmark(benchmark_id)
    payloads: List[CellTaskResult] = []
    for _ in range(max(runs, 1)):
        start = time.perf_counter()
        if fresh:
            # Mirrors ``sweep(warm=False)`` / cold ``run_benchmark``: a
            # freshly built problem inside a throwaway store-less session.
            from repro.synth.session import SynthesisSession

            problem = benchmark.build()
            with SynthesisSession(config) as cold:
                result = cold.run(problem)
        else:
            result = _WORKER.session.run(benchmark_id, config=config)
        elapsed = time.perf_counter() - start
        payloads.append(
            CellTaskResult(
                success=result.success,
                timed_out=result.timed_out,
                program=result.program,
                elapsed_s=elapsed,
                stats=result.stats,
                cache_stats=result.cache_stats,
                state_stats=result.state_stats,
                metrics=result.metrics,
                # Drained per run, so every payload carries its own events.
                trace_events=(
                    trace.TRACER.export() if trace.TRACER is not None else []
                ),
            )
        )
        if not result.success:
            break
    return payloads


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


def await_cell(future, config: SynthConfig, runs: int = 1) -> List[CellTaskResult]:
    """A cell task's payloads, or one timed-out payload if the wait expires.

    The wait is bounded by the cell's own synthesis budget, ``timeout_s``
    per run, counted from now (see the module docstring).  A worker that
    dies mid-cell never completes its future, so without the bound its
    cell would hang the caller.
    """

    budget = Budget(
        None if config.timeout_s is None else config.timeout_s * max(runs, 1)
    )
    try:
        return future.get(budget.remaining())
    except multiprocessing.TimeoutError:
        return [
            CellTaskResult(
                success=False,
                timed_out=True,
                program=None,
                elapsed_s=budget.elapsed(),
                stats=SearchStats(timed_out=True),
                cache_stats=None,
                state_stats=None,
            )
        ]


class ParallelExecutor:
    """A lazily-started worker pool bound to one session's resources.

    Forked workers inherit the parent's interpreter state (and hash seed, on
    which candidate-enumeration order depends), which is what makes a cell
    run in a worker bit-identical to the same cell run serially.
    """

    def __init__(
        self,
        jobs: int,
        base_config: Optional[SynthConfig] = None,
        store_path: Optional[str] = None,
    ) -> None:
        self.jobs = max(int(jobs), 1)
        self.base_config = base_config if base_config is not None else SynthConfig()
        self.store_path = store_path
        self._pool = None

    def _get_pool(self):
        if self._pool is None:
            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn"
            )
            # Freeze the parent heap across the fork so workers inherit it
            # in the GC's permanent generation: a worker's first full
            # collection then skips every pre-fork object (interned types,
            # the benchmark registry, memos of earlier synthesis runs)
            # instead of traversing -- and, under copy-on-write, physically
            # copying -- all of those pages, a pause that can dwarf the
            # cells the worker runs.  The parent unfreezes right after the
            # fork, restoring its own collection behavior.
            gc.collect()
            gc.freeze()
            try:
                self._pool = context.Pool(
                    processes=self.jobs,
                    initializer=_worker_init,
                    initargs=(self.base_config, self.store_path),
                )
            finally:
                gc.unfreeze()
        return self._pool

    def submit_cell(
        self, benchmark_id: str, config: SynthConfig, fresh: bool, runs: int = 1
    ):
        """One benchmark cell, run ``runs`` times in the same worker.

        The future resolves to a *list* of :class:`CellTaskResult` (one per
        run, truncated at the first failure like the serial runner).
        """

        return self._get_pool().apply_async(
            _worker_call, ((benchmark_id, config, fresh, runs),)
        )

    # ------------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Shut the pool down, abandoning unconsumed tasks.

        Every consumed future's task has already run its store flush, so
        terminating only discards work nobody is waiting on -- e.g. the
        cells left queued behind a sweep that raised, or a cell whose
        bounded wait expired.  (Mid-task SQLite flushes are transactions;
        a terminated worker rolls back rather than corrupting the store.)
        """

        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
