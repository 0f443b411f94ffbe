"""The top-level synthesis pipeline.

:func:`run_synthesis` realises the full RbSyn loop:

1. for every spec, search for an expression passing it (Algorithm 2),
   first re-trying expressions that already solved earlier specs (Section 4,
   "Optimizations": the bottleneck becomes the number of unique paths, not
   the number of tests);
2. merge the per-spec solutions into a single branching method
   (Algorithm 1), synthesizing and reusing branch conditions as needed;
3. report the result together with timing and search statistics, which the
   evaluation harnesses turn into Table 1 / Figures 7 and 8.

The public entry point is :class:`repro.synth.session.SynthesisSession`,
which owns the warm resources (evaluation memo, snapshot managers, the
persistent spec-outcome store) and calls :func:`run_synthesis` with them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Tuple

from repro.lang import ast as A
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry
from repro.synth.cache import CacheStats, SynthCache
from repro.synth.config import SynthConfig
from repro.synth.goal import (
    Budget,
    SynthesisProblem,
    SynthesisTimeout,
    evaluate_spec,
)
from repro.synth.merge import Merger, SpecSolution
from repro.synth.search import SearchStats, generate_for_spec
from repro.synth.simplify import simplify
from repro.synth.state import StateManager, StateStats


@dataclass
class SynthesisResult:
    """Outcome of one synthesis run."""

    problem: SynthesisProblem
    success: bool
    program: Optional[A.MethodDef] = None
    solutions: List[SpecSolution] = field(default_factory=list)
    elapsed_s: float = 0.0
    timed_out: bool = False
    stats: SearchStats = field(default_factory=SearchStats)
    #: Full counters of the run's evaluation cache (hits/misses/evictions,
    #: plus the redundant executions a disabled cache merely observed).
    #: When the cache is shared across runs, these are this run's deltas.
    cache_stats: Optional[CacheStats] = None
    #: This run's snapshot/restore counters (None when state management is
    #: disabled or the problem carries no database).
    state_stats: Optional[StateStats] = None
    #: Unified metrics snapshot (:mod:`repro.obs.metrics`): every stats
    #: dataclass this run touched plus per-phase wall-time histograms,
    #: exported through one ``MetricsRegistry.snapshot()``.
    metrics: Optional[dict] = None

    @property
    def method_size(self) -> Optional[int]:
        """Number of AST nodes of the synthesized method (Table 1, Meth Size)."""

        return A.node_count(self.program.body) if self.program is not None else None

    @property
    def paths(self) -> Optional[int]:
        """Number of paths through the synthesized method (Table 1, # Syn Paths)."""

        return A.count_paths(self.program) if self.program is not None else None

    def pretty(self) -> str:
        if self.program is None:
            return "<no solution>"
        from repro.lang.pretty import pretty_block

        return pretty_block(self.program)

    def __str__(self) -> str:
        status = "ok" if self.success else ("timeout" if self.timed_out else "failed")
        return f"<SynthesisResult {self.problem.name} {status} {self.elapsed_s:.2f}s>"


def run_synthesis(
    problem: SynthesisProblem,
    config: SynthConfig,
    cache: SynthCache,
    state: Optional[StateManager] = None,
    solution_hints: Optional[Mapping] = None,
) -> SynthesisResult:
    """Synthesize a method satisfying every spec of ``problem``.

    The engine core: assumes ``problem``'s class table is already at
    ``config.effect_precision`` (the session derives precision variants so
    warm resources survive; see ``SynthesisSession.run``).  ``cache`` and
    ``state`` are the warm resources to use; the cache outlives this run
    (it stays registered on the problem, so baseline invalidations keep
    reaching it) and the result reports this run's counter deltas only.

    ``solution_hints`` maps specs to the expression a *previous* run of the
    same (problem, config) synthesized for them -- the Section 4 reuse
    optimization extended across runs.  A hint is only adopted after it
    re-validates against the spec (a stale hint is simply searched past),
    and because the search is deterministic the adopted expression is
    exactly what a fresh search would re-find, so hinted runs synthesize
    identical programs.  The session maintains these per (problem, config).
    """

    budget = Budget(config.timeout_s)
    stats = SearchStats()
    problem.register_cache(cache)
    if state is not None:
        state.verify_every = config.verify_recordings
    run = _RunCounters(problem, cache, state)
    solutions: List[SpecSolution] = []

    try:
        specs_started = time.perf_counter()
        with trace.TRACER.span("phase.specs", specs=len(problem.specs)):
            for spec in problem.specs:
                if _reuse_solution(
                    problem, spec, solutions, config, budget, stats, cache, state
                ):
                    continue
                hint = _adopt_hint(
                    problem, spec, solution_hints, config, budget, stats, cache,
                    state,
                )
                if hint is not None:
                    solutions.append(SpecSolution(expr=hint, specs=(spec,)))
                    continue
                spec_started = time.perf_counter()
                expr = generate_for_spec(
                    problem, spec, config, budget=budget, stats=stats, cache=cache,
                    state=state,
                )
                run.observe_phase("spec_search", time.perf_counter() - spec_started)
                if expr is None:
                    return run.finish(
                        SynthesisResult(
                            problem,
                            success=False,
                            solutions=solutions,
                            elapsed_s=budget.elapsed(),
                            stats=stats,
                        )
                    )
                simplified = simplify(expr)
                if not evaluate_spec(
                    problem, problem.make_program(simplified), spec, cache=cache,
                    state=state, backend=config.eval_backend,
                ).ok:
                    simplified = expr
                solutions.append(SpecSolution(expr=simplified, specs=(spec,)))
        run.observe_phase("specs", time.perf_counter() - specs_started)

        merge_started = time.perf_counter()
        with trace.TRACER.span("phase.merge", solutions=len(solutions)):
            merger = Merger(
                problem, config, budget=budget, stats=stats, cache=cache,
                state=state, metrics=run,
            )
            program = merger.merge(solutions)
        run.observe_phase("merge", time.perf_counter() - merge_started)
    except SynthesisTimeout:
        return run.finish(
            SynthesisResult(
                problem,
                success=False,
                solutions=solutions,
                elapsed_s=budget.elapsed(),
                timed_out=True,
                stats=stats,
            )
        )

    return run.finish(
        SynthesisResult(
            problem,
            success=program is not None,
            program=program,
            solutions=solutions,
            elapsed_s=budget.elapsed(),
            stats=stats,
        )
    )


class _RunCounters:
    """Baselines for the cache/state counters of one synthesis run.

    The memo and snapshot manager may be shared across runs (warm registry
    state), so each result reports only the deltas this run accumulated.
    """

    def __init__(
        self,
        problem: SynthesisProblem,
        cache: SynthCache,
        state: Optional[StateManager],
    ) -> None:
        self.cache = cache
        self.state = state
        self.cache_before = cache.stats.copy()
        self.state_before = state.stats.copy() if state is not None else None
        self.resets_before = problem.reset_replays
        self.database = problem.database
        self.query_before = (
            self.database.query_stats.copy() if self.database is not None else None
        )
        self.store_before = (
            cache.store.stats.copy() if cache.store is not None else None
        )
        #: Per-phase wall-time observations ((phase, seconds) pairs) folded
        #: into the result's metrics snapshot.
        self.phases: List[Tuple[str, float]] = []

    def observe_phase(self, phase: str, seconds: float) -> None:
        self.phases.append((phase, seconds))

    def finish(self, result: SynthesisResult) -> SynthesisResult:
        """Fold this run's counter deltas into the result."""

        cache_stats = self.cache.stats.since(self.cache_before)
        result.cache_stats = cache_stats
        result.stats.cache_hits = cache_stats.hits
        result.stats.cache_misses = cache_stats.misses
        result.stats.cache_redundant = cache_stats.redundant
        result.stats.cache_evictions = cache_stats.evictions
        result.stats.store_hits = cache_stats.store_hits
        result.stats.store_misses = cache_stats.store_misses
        if self.state is not None and self.state_before is not None:
            # Fold the run's query-planner counters into the manager first so
            # the state-stats delta below carries them too.
            self.state.sync_query_stats()
            state_stats = self.state.stats.since(self.state_before)
            result.state_stats = state_stats
            result.stats.state_restores = state_stats.restores
            result.stats.state_rebuilds = state_stats.rebuilds
            result.stats.state_pure_skips = state_stats.pure_skips
        result.stats.reset_replays = (
            result.problem.reset_replays - self.resets_before
        )
        query_stats = None
        if self.database is not None and self.query_before is not None:
            query_stats = self.database.query_stats.since(self.query_before)
            result.stats.index_hits = query_stats.index_hits
            result.stats.index_scans = query_stats.scans

        # Unified metrics export (repro.obs.metrics): the run's stats
        # dataclasses behind one registry snapshot, plus the per-phase
        # wall-time histograms.
        registry = MetricsRegistry()
        registry.attach_stats("search", result.stats)
        registry.attach_stats("cache", cache_stats)
        if result.state_stats is not None:
            registry.attach_stats("state", result.state_stats)
        if query_stats is not None:
            registry.attach_stats("query", query_stats)
        if self.cache.store is not None and self.store_before is not None:
            registry.attach_stats(
                "store", self.cache.store.stats.since(self.store_before)
            )
        for phase, seconds in self.phases:
            registry.observe_phase(phase, seconds)
        registry.observe_phase("run", result.elapsed_s)
        result.metrics = registry.snapshot()
        return result


def _adopt_hint(
    problem: SynthesisProblem,
    spec,
    solution_hints: Optional[Mapping],
    config: SynthConfig,
    budget: Budget,
    stats: SearchStats,
    cache: Optional[SynthCache] = None,
    state: Optional[StateManager] = None,
):
    """The previous run's re-validated solution for ``spec``, or ``None``.

    Hints are stored post-simplify, so adopting one reproduces the exact
    solution tuple a fresh search-plus-simplify would append; the
    evaluation is budget-checked like every reuse trial.
    """

    if not solution_hints:
        return None
    hint = solution_hints.get(spec)
    if hint is None:
        return None
    if budget.expired():
        stats.timed_out = True
        raise SynthesisTimeout(f"timeout while re-validating {spec.name!r}")
    outcome = evaluate_spec(
        problem,
        problem.make_program(hint),
        spec,
        cache=cache,
        state=state,
        backend=config.eval_backend,
    )
    if not outcome.ok:
        return None
    stats.hint_reuses += 1
    return hint


def _reuse_solution(
    problem: SynthesisProblem,
    spec,
    solutions: List[SpecSolution],
    config: SynthConfig,
    budget: Budget,
    stats: SearchStats,
    cache: Optional[SynthCache] = None,
    state: Optional[StateManager] = None,
) -> bool:
    """Try expressions that solved earlier specs before searching from scratch.

    Each trial executes the spec, so the budget is checked before every
    evaluation -- otherwise a goal with many solved specs could run far
    past ``timeout_s`` without ever raising :class:`SynthesisTimeout`.
    """

    if not config.reuse_solutions:
        return False
    for i, solution in enumerate(solutions):
        if budget.expired():
            stats.timed_out = True
            raise SynthesisTimeout(
                f"timeout while reusing solutions for {spec.name!r}"
            )
        outcome = evaluate_spec(
            problem, problem.make_program(solution.expr), spec, cache=cache,
            state=state, backend=config.eval_backend,
        )
        if outcome.ok:
            solutions[i] = solution.covering(spec)
            return True
    return False

