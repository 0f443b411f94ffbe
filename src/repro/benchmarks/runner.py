"""Running benchmarks and collecting the metrics Table 1 reports.

Built on :class:`repro.synth.session.SynthesisSession`: a warm
``run_benchmark`` shares one session (evaluation memo, snapshot recordings
and, when the caller provides a session with one, the persistent
spec-outcome store) across its runs, while ``warm_state=False`` gives every
run a freshly built problem inside a throwaway store-less session for fully
isolated (cold) timing measurements.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.benchmarks.registry import BenchmarkSpec
from repro.obs.metrics import merge_snapshots
from repro.synth.config import SynthConfig
from repro.synth.session import SynthesisSession
from repro.synth.synthesizer import SynthesisResult


@dataclass
class BenchmarkResult:
    """Measurements for one benchmark under one configuration."""

    benchmark: BenchmarkSpec
    config: SynthConfig
    times_s: List[float] = field(default_factory=list)
    success: bool = False
    timed_out: bool = False
    meth_size: Optional[int] = None
    syn_paths: Optional[int] = None
    specs: int = 0
    lib_methods: int = 0
    program_text: str = ""
    last_result: Optional[SynthesisResult] = None
    # Evaluation-cache counters summed across runs (see repro.synth.cache).
    cache_hits: int = 0
    cache_misses: int = 0
    cache_redundant: int = 0
    cache_evictions: int = 0
    # Persistent-store counters summed across runs (see repro.synth.store):
    # outcomes answered from / missed by the session's on-disk store.
    store_hits: int = 0
    store_misses: int = 0
    # State-management counters summed across runs (see repro.synth.state):
    # snapshot restores vs. full reset+setup rebuilds, and how often the
    # problem's reset closure actually ran.
    state_restores: int = 0
    state_rebuilds: int = 0
    reset_replays: int = 0
    # Query-planner counters summed across runs (repro.activerecord): spec
    # evaluations answered through a hash index vs. full-table scans.
    index_hits: int = 0
    index_scans: int = 0
    # Static-analysis counters summed across runs (repro.analysis): dynamic
    # candidate evaluations performed vs. answered statically, footprint
    # memo hits, restores skipped via the write-pure fast-path, and S-Eff
    # type fallbacks (each a latent annotation bug; see effect_guided).
    evaluated: int = 0
    static_prunes: int = 0
    footprint_hits: int = 0
    state_pure_skips: int = 0
    effect_type_fallbacks: int = 0
    # Unified metrics (repro.obs.metrics): the per-run snapshots folded
    # together with ``merge_snapshots`` across this result's runs.
    metrics: Optional[dict] = None

    @property
    def median_s(self) -> Optional[float]:
        return statistics.median(self.times_s) if self.times_s else None

    @property
    def siqr_s(self) -> Optional[float]:
        """Semi-interquartile range, the spread statistic Table 1 reports."""

        if len(self.times_s) < 2:
            return 0.0 if self.times_s else None
        ordered = sorted(self.times_s)
        q1, _, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
        return (q3 - q1) / 2

    def display_time(self) -> str:
        if not self.success:
            return "timeout" if self.timed_out else "fail"
        return f"{self.median_s:.2f} ± {self.siqr_s:.2f}"

    def record(self, outcome: SynthesisResult, elapsed: float) -> None:
        """Fold one run's outcome into the summed counters."""

        self.last_result = outcome
        self.timed_out = outcome.timed_out
        self.success = outcome.success
        self.cache_hits += outcome.stats.cache_hits
        self.cache_misses += outcome.stats.cache_misses
        self.cache_redundant += outcome.stats.cache_redundant
        self.cache_evictions += outcome.stats.cache_evictions
        self.store_hits += outcome.stats.store_hits
        self.store_misses += outcome.stats.store_misses
        self.state_restores += outcome.stats.state_restores
        self.state_rebuilds += outcome.stats.state_rebuilds
        self.reset_replays += outcome.stats.reset_replays
        self.index_hits += outcome.stats.index_hits
        self.index_scans += outcome.stats.index_scans
        self.evaluated += outcome.stats.evaluated
        self.static_prunes += outcome.stats.static_prunes
        self.footprint_hits += outcome.stats.footprint_hits
        self.state_pure_skips += outcome.stats.state_pure_skips
        self.effect_type_fallbacks += outcome.stats.effect_type_fallbacks
        if outcome.metrics is not None:
            self.metrics = (
                outcome.metrics
                if self.metrics is None
                else merge_snapshots(self.metrics, outcome.metrics)
            )
        if outcome.success:
            self.times_s.append(elapsed)
            self.meth_size = outcome.method_size
            self.syn_paths = outcome.paths
            self.program_text = outcome.pretty()


def run_benchmark(
    benchmark: BenchmarkSpec,
    config: Optional[SynthConfig] = None,
    runs: int = 1,
    warm_state: bool = True,
    session: Optional[SynthesisSession] = None,
    parallel: int = 1,
) -> BenchmarkResult:
    """Run one benchmark ``runs`` times and collect Table 1 metrics.

    With ``warm_state`` (the default) the benchmark's problem (app substrate,
    class table, specs) is built once per session and the session's
    evaluation memo, database snapshot manager and (if any)
    persistent store are shared across the runs.  Passing an external
    ``session`` extends that sharing across *calls* -- e.g. one session
    carrying a populated spec-outcome store.  ``warm_state=False`` rebuilds
    everything per run inside a throwaway store-less session for fully
    isolated (cold) measurements; an external session is then ignored.
    Per-benchmark config overrides (e.g. a larger size bound) are applied on
    top of ``config`` either way.

    ``parallel`` distributes the isolated cold repetitions over a
    throwaway worker pool (:mod:`repro.synth.parallel`); each one stays a
    fully cold cell, waited on no longer than ``timeout_s``.  Repetitions
    then run *concurrently*, so their wall-clock includes co-scheduling
    contention: use ``parallel=1`` (the default) when medians must be
    comparable to isolated serial runs (the paper's Table 1 numbers).
    Warm runs share one session's resources across the repetitions, so
    they run serially; ``warm_state=True`` with ``parallel > 1`` raises
    :class:`ValueError`.
    """

    effective = benchmark.make_config(config)
    result = BenchmarkResult(benchmark=benchmark, config=effective)
    jobs = max(int(parallel), 1)
    if warm_state and jobs > 1:
        raise ValueError(
            "run_benchmark(warm_state=True) runs serially; parallel > 1 "
            "applies only to cold repetitions (warm_state=False)"
        )

    if not warm_state:
        if jobs > 1 and runs > 1:
            return _run_cold_parallel(benchmark, effective, runs, jobs, result)
        for _ in range(max(runs, 1)):
            problem = benchmark.build()
            result.specs = len(problem.specs)
            result.lib_methods = problem.library_method_count()
            with SynthesisSession(effective) as cold:
                start = time.perf_counter()
                outcome = cold.run(problem, config=effective)
                elapsed = time.perf_counter() - start
            result.record(outcome, elapsed)
            if not outcome.success:
                break
        return result

    owns_session = session is None
    active = session if session is not None else SynthesisSession(effective)
    try:
        problem = active.problem_for(benchmark)
        result.specs = len(problem.specs)
        result.lib_methods = problem.library_method_count()
        for _ in range(max(runs, 1)):
            start = time.perf_counter()
            outcome = active.run(problem, config=effective)
            elapsed = time.perf_counter() - start
            result.record(outcome, elapsed)
            if not outcome.success:
                break
    finally:
        if owns_session:
            active.close()
    return result


def _run_cold_parallel(
    benchmark: BenchmarkSpec,
    effective: SynthConfig,
    runs: int,
    jobs: int,
    result: BenchmarkResult,
) -> BenchmarkResult:
    """Distribute a cold benchmark's isolated repetitions over a pool."""

    from repro.synth.parallel import ParallelExecutor, await_cell

    problem = benchmark.build()
    result.specs = len(problem.specs)
    result.lib_methods = problem.library_method_count()
    with ParallelExecutor(jobs, base_config=effective) as executor:
        futures = [
            executor.submit_cell(benchmark.id, effective, fresh=True, runs=1)
            for _ in range(max(runs, 1))
        ]
        for future in futures:
            payload = await_cell(future, effective)[0]
            result.record(payload.to_result(problem), payload.elapsed_s)
            if not payload.success:
                break
    return result
