"""Before/after comparison of the evaluation backends (repro.interp).

For each selected registry benchmark the harness synthesizes twice with the
same configuration -- once with ``eval_backend="tree"`` (the definitional
walker) and once with ``eval_backend="compiled"`` (subtrees
closed into cached closures, :mod:`repro.interp.compile`) -- and emits a
JSON report comparing the two runs:

* ``evals_per_s`` -- candidate-evaluation throughput: the synthesized
  program is re-invoked against the spec recordings captured by the
  :class:`~repro.synth.state.StateManager` (database snapshot restored and
  arguments deep-copied *outside* the timed window, so only
  ``Interpreter.call_program`` is measured);
* ``programs_identical`` -- whether both runs synthesized the same program
  (the backends must be observably identical, so backend choice can never
  change synthesis results);
* ``throughput_speedup`` -- honest ratio ``on.evals_per_s /
  off.evals_per_s``.

The acceptance target (checked by ``--check``, used by ``scripts/ci.sh``)
is a >= 3x candidate-evaluation throughput improvement on at least
``--min-benchmarks`` benchmarks, with identical programs everywhere.  To
keep the ratio honest on drift-prone runners, the tree and compiled timing
rounds for one benchmark run interleaved back-to-back (the harness's
paired-measurement hook) once both sides have synthesized.
The report/CLI plumbing shared with ``bench_cache.py``/``bench_state.py``
lives in :mod:`ab_harness`.  The persistent-store options of the shared
CLI are accepted but unused here (backend choice has no store interaction).

Usage::

    PYTHONPATH=src python benchmarks/bench_interp.py --out interp_report.json
    PYTHONPATH=src python benchmarks/bench_interp.py --check   # CI gate
"""

from __future__ import annotations

import copy
import gc
import os
import sys
import time
from typing import Dict, List, Optional, Sequence

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
for _path in (_SRC, _HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from ab_harness import ABHarness, SCHEMA_VERSION  # noqa: E402,F401
from repro.benchmarks import get_benchmark  # noqa: E402
from repro.interp import Interpreter  # noqa: E402
from repro.lang.pretty import pretty  # noqa: E402
from repro.synth.config import SynthConfig  # noqa: E402
from repro.synth.goal import evaluate_spec  # noqa: E402
from repro.synth.session import SynthesisSession  # noqa: E402

#: Registry benchmarks whose synthesized programs do enough per-call work
#: (ORM queries, multi-call bodies) for backend throughput to dominate the
#: measurement noise; all synthesize in well under a second.
DEFAULT_BENCHMARKS = ("S7", "A1", "A5", "A8", "A11")

#: Timed program invocations per spec recording (after one warmup pass).
_REPS_PER_SPEC = 300

#: Timing rounds per backend; the best round is reported.  Scheduling and
#: GC noise only ever *deflate* a round's rate, so the max is the robust
#: estimator of what the backend can sustain; five rounds keep the estimator
#: stable on single-core runners where any one round can lose 20%+ to
#: scheduling jitter.
_ROUNDS = 5

#: Required keys per section, checked by validate_report (and CI).
_RUN_KEYS = frozenset(
    {
        "success",
        "elapsed_s",
        "backend",
        "evaluations",
        "evals_per_s",
    }
)


def _run(
    benchmark_id: str,
    timeout_s: float,
    enabled: bool,
    store_path: Optional[str] = None,
) -> Dict[str, object]:
    backend = "compiled" if enabled else "tree"
    benchmark = get_benchmark(benchmark_id)
    problem = benchmark.build()
    config = benchmark.make_config(
        SynthConfig(timeout_s=timeout_s, eval_backend=backend)
    )
    started = time.perf_counter()
    with SynthesisSession(config) as session:
        result = session.run(problem)
    elapsed_s = time.perf_counter() - started
    if not result.success or result.program is None:
        return {
            "success": False,
            "elapsed_s": round(elapsed_s, 4),
            "backend": backend,
            "evaluations": 0,
            "evals_per_s": 0.0,
            "_program": None,
            "_text": None,
            "_measure": None,
        }
    program = result.program

    # Capture per-spec recordings (pre-invoke snapshot + arguments) and warm
    # the backend (compile closures, fill dispatch caches).  The throughput
    # measurement itself is deferred: ``one_round`` is handed back via the
    # section's ``_measure`` slot and driven by :func:`_measure_pair` once
    # *both* backends have synthesized, so the two sides' timed rounds run
    # interleaved back-to-back instead of minutes apart.
    manager = problem.state_manager()
    for spec in problem.specs:
        evaluate_spec(problem, program, spec, state=manager, backend=backend)
    interp = Interpreter(problem.class_table, backend=backend)
    recordings = [
        rec
        for rec in (manager.recording_for(spec) for spec in problem.specs)
        if rec is not None
    ]
    for rec in recordings:
        problem.database.restore(rec.snapshot)
        _, args = copy.deepcopy((rec.state, rec.args))
        try:
            interp.call_program(program, *args)
        except Exception:
            pass

    def one_round() -> "tuple[int, float]":
        """One timed round: (program invocations, seconds inside them)."""

        total, count = 0.0, 0
        gc_was_enabled = gc.isenabled()
        try:
            for rec in recordings:
                # Pre-materialize the per-rep argument copies.  The joint
                # (state, args) deep copy preserves aliasing between the
                # two, but it allocates heavily -- interleaving it with the
                # timed reps churns the allocator and pollutes the timed
                # windows, so the copies are built up front and only the
                # snapshot restore stays between measurements.
                arg_copies = [
                    copy.deepcopy((rec.state, rec.args))[1]
                    for _ in range(_REPS_PER_SPEC)
                ]
                restore = problem.database.restore
                snapshot = rec.snapshot
                gc.collect()
                gc.disable()
                for args in arg_copies:
                    restore(snapshot)
                    t0 = time.perf_counter()
                    try:
                        interp.call_program(program, *args)
                    except Exception:
                        pass
                    total += time.perf_counter() - t0
                    count += 1
                if gc_was_enabled:
                    gc.enable()
        finally:
            if gc_was_enabled:
                gc.enable()
        return count, total

    return {
        "success": True,
        "elapsed_s": round(elapsed_s, 4),
        "backend": backend,
        "evaluations": 0,
        "evals_per_s": 0.0,
        "_program": program,
        "_text": pretty(program),
        "_measure": one_round,
    }


def _measure_pair(off: Dict[str, object], on: Dict[str, object]) -> None:
    """Interleave the two backends' timed rounds and fill in their rates.

    Round ``i`` of the tree backend runs immediately before round ``i`` of
    the compiled backend, so slow machine-speed drift (CPU frequency
    scaling, noisy neighbours) deflates both sides of the ratio equally;
    the best round per backend is the reported rate (noise only ever
    deflates a round).
    """

    rounds = [
        (section, section.pop("_measure", None)) for section in (off, on)
    ]
    best: Dict[int, float] = {0: 0.0, 1: 0.0}
    evaluations: Dict[int, int] = {0: 0, 1: 0}
    for _ in range(_ROUNDS):
        for i, (_, one_round) in enumerate(rounds):
            if one_round is None:
                continue
            count, total = one_round()
            evaluations[i] = count
            if total > 0:
                best[i] = max(best[i], count / total)
    for i, (section, one_round) in enumerate(rounds):
        if one_round is None:
            continue
        section["success"] = bool(evaluations[i])
        section["evaluations"] = evaluations[i]
        section["evals_per_s"] = round(best[i], 2)


def _diff(
    off: Dict[str, object], on: Dict[str, object], identical: bool
) -> Dict[str, object]:
    tree_rate = float(off["evals_per_s"])
    compiled_rate = float(on["evals_per_s"])
    speedup = compiled_rate / tree_rate if tree_rate > 0 else 0.0
    # The ">=3x candidate-evaluation throughput" target: the compiled
    # backend must re-evaluate the synthesized program at least three times
    # as fast as the tree walker, and -- backends being observably identical
    # -- both runs must synthesize byte-identical programs.  (The gate was
    # >=2x before the slot-frame refactor; resolved positional frames plus
    # fused constant-receiver dispatch raised the floor.)
    meets = (
        identical
        and bool(off["success"])
        and bool(on["success"])
        and speedup >= 3.0
    )
    return {
        "throughput_speedup": round(speedup, 4),
        "meets_target": meets,
    }


HARNESS = ABHarness(
    generated_by="benchmarks/bench_interp.py",
    section_prefix="interp",
    target=">=3x candidate-evaluation throughput, identical programs",
    run_keys=_RUN_KEYS,
    extra_entry_keys=frozenset({"throughput_speedup"}),
    run=_run,
    diff=_diff,
    fail_identical="eval backend changed a synthesized program",
    ok_noun="3x throughput target",
    measure=_measure_pair,
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
