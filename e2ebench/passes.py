"""One pass of an end-to-end workload, run in a fresh interpreter process.

``run.py`` starts this script once per pass, so no pass inherits the
previous pass's heap: a second pass in the same process runs measurably
slower from garbage collection over the earlier goals' cyclic garbage.
The script

1. imports the engine and builds every goal's problem, then does the
   workload's untimed preparation (``setup_s``);
2. synthesizes every goal once, one after another, in the order the
   workload seed and pass index give -- the order is a real input
   property, because the garbage one goal leaves changes the next goal's
   GC pauses;
3. checks every program: it must pass its specs when re-checked with the
   definitional tree-walking backend on a freshly built problem, and its
   pretty-printed text must equal the committed expected program;
4. prints one JSON object (the pass record) as its last stdout line.

The engine is driven only through its public API: ``SynthesisSession``,
``result.program`` and ``result.metrics``.  No ``gc.collect()`` runs inside
the timed window, so real collection cost stays in the measurement.

Usage (normally invoked by ``run.py``)::

    python3 e2ebench/passes.py --workload paper_cold --seed 1 --pass-index 0
    python3 e2ebench/passes.py --workload paper_store --populate STORE
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import sys
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
EXPECTED_PATH = os.path.join(BENCH_DIR, "expected_programs.json")

#: The 19 Table 1 goals, in the paper's order.
PAPER_GOALS = (
    "S1", "S2", "S3", "S4", "S5", "S6", "S7",
    "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8",
    "A9", "A10", "A11", "A12",
)

#: Goals of each workload.  ``paper_warm`` keeps the four goals whose warm
#: runs carry almost all warm guard-search time (A1, A3, A4, A9).
WORKLOAD_GOALS: Dict[str, Tuple[str, ...]] = {
    "paper_cold": PAPER_GOALS,
    "paper_store": PAPER_GOALS,
    "paper_warm": ("A1", "A3", "A4", "A9"),
    "scale_cold": ("SC1", "SC2"),
}

#: Per-goal synthesis budget.  Every goal solves in a few seconds; the
#: budget only turns a pathological regression into a counted ``timeout``
#: instead of a hang.
GOAL_TIMEOUT_S = 60.0

#: Failure classes of a goal-run, in the order they are tested.
FAILURE_CLASSES = ("unsolved", "timeout", "exception", "oracle-fail", "program-drift")

#: The deterministic work counters: benchmark name -> (stats section,
#: fields summed) in ``result.metrics["stats"]``.
COUNTERS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "search.expansions": ("search", ("expansions",)),
    "search.pushed": ("search", ("pushed",)),
    "search.evaluated": ("search", ("evaluated",)),
    "search.effect_wraps": ("search", ("effect_wraps",)),
    "search.pruned_size": ("search", ("pruned_size",)),
    "analysis.static_prunes": ("search", ("static_prunes",)),
    "analysis.footprint_hits": ("search", ("footprint_hits",)),
    "cache.hits": ("cache", ("spec_hits", "guard_hits")),
    "cache.misses": ("cache", ("spec_misses", "guard_misses")),
    "store.hits": ("cache", ("store_hits",)),
    "store.misses": ("cache", ("store_misses",)),
    "restore.restores": ("search", ("state_restores",)),
    "restore.pure_skips": ("search", ("state_pure_skips",)),
    "orm.index_hits": ("search", ("index_hits",)),
    "orm.index_scans": ("search", ("index_scans",)),
}


def goal_order(workload: str, seed: int, pass_index: int) -> List[str]:
    """The seeded goal order of one pass (string seeding is hash-seed free)."""

    goals = list(WORKLOAD_GOALS[workload])
    random.Random(f"{workload}:{seed}:{pass_index}").shuffle(goals)
    return goals


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _import_engine() -> Dict[str, Any]:
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"e2ebench: no engine sources under {src}")
    sys.path.insert(0, src)
    import repro.benchmarks.scale  # noqa: F401  (registers SC1-SC3)
    # The default eval backend is otherwise imported by the first spec
    # evaluation, a once-per-process cost that would land on the first goal.
    import repro.interp.compile  # noqa: F401
    from repro.benchmarks.registry import get_benchmark
    from repro.synth.config import SynthConfig
    from repro.synth.goal import evaluate_all_specs
    from repro.synth.session import SynthesisSession

    return {
        "get_benchmark": get_benchmark,
        "SynthConfig": SynthConfig,
        "evaluate_all_specs": evaluate_all_specs,
        "SynthesisSession": SynthesisSession,
    }


class Goal:
    """One goal of a pass: its registry entry, built problem and config."""

    def __init__(self, engine: Dict[str, Any], goal_id: str) -> None:
        self.id = goal_id
        self.benchmark = engine["get_benchmark"](goal_id)
        self.problem = self.benchmark.build()
        self.config = self.benchmark.make_config(
            engine["SynthConfig"](timeout_s=GOAL_TIMEOUT_S)
        )


class GcPauses:
    """Collector pause time inside the open goal window (via ``gc.callbacks``)."""

    def __init__(self) -> None:
        self.window_open = False
        self.total_s = 0.0
        self._start: Optional[float] = None

    def __call__(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._start = time.perf_counter() if self.window_open else None
        elif self._start is not None:
            self.total_s += time.perf_counter() - self._start
            self._start = None


def _sum_counters(metrics: Optional[dict], totals: Dict[str, int]) -> None:
    stats = (metrics or {}).get("stats", {})
    for name, (section, fields) in COUNTERS.items():
        values = stats.get(section) or {}
        totals[name] = totals.get(name, 0) + sum(int(values.get(f, 0)) for f in fields)


def _classify(engine: Dict[str, Any], goal_id: str, outcome: Dict[str, Any],
              expected: Dict[str, str], verified: Sequence[str]) -> Optional[str]:
    """The failure class of one finished goal-run, or ``None`` if it passed.

    ``verified`` names goals whose expected program already passed the
    tree-backend re-check earlier in this run; the re-check is deterministic,
    so the same text is not re-checked (at 1e5 rows it costs more than the
    synthesis).
    """

    if outcome["error"] is not None:
        return "exception"
    if outcome["program"] is None or not outcome["success"]:
        return "timeout" if outcome["timed_out"] else "unsolved"
    drift = outcome["text"] != expected.get(goal_id)
    if drift or goal_id not in verified:
        fresh = engine["get_benchmark"](goal_id).build()
        if not engine["evaluate_all_specs"](fresh, outcome["program"], backend="tree"):
            return "oracle-fail"
    return "program-drift" if drift else None


def set_up(args: argparse.Namespace) -> Tuple[Dict[str, Any], List[Goal], Optional[str], float]:
    """Import, build every goal and do the workload's untimed preparation."""

    start = time.perf_counter()
    engine = _import_engine()
    goals = [Goal(engine, goal_id)
             for goal_id in goal_order(args.workload, args.seed, args.pass_index)]
    store_path = None
    if args.workload == "paper_store":
        store_path = os.path.join(args.workdir, f"pass{args.pass_index}.sqlite")
        for suffix in ("", "-wal"):
            if os.path.exists(args.store_template + suffix):
                shutil.copyfile(args.store_template + suffix, store_path + suffix)
    return engine, goals, store_path, time.perf_counter() - start


def run_pass(args: argparse.Namespace) -> Dict[str, Any]:
    engine, goals, store_path, setup_s = set_up(args)
    SynthesisSession = engine["SynthesisSession"]
    if args.setup_only:
        if args.workload == "paper_warm":
            began = time.perf_counter()
            for goal in goals:
                with SynthesisSession(goal.config) as session:
                    session.run(goal.problem, config=goal.config)
            setup_s += time.perf_counter() - began
        return {"setup_s": setup_s}
    tracer = None
    if args.trace:
        from layers import LayerTracer

        tracer = LayerTracer()
        tracer.install()

    pauses = GcPauses()
    gc.callbacks.append(pauses)
    outcomes: List[Dict[str, Any]] = []
    for goal in goals:
        result, error, elapsed = None, None, None
        began = time.perf_counter()
        try:
            session = None
            if args.workload == "paper_warm":
                # The warm workload times a goal's second run in one session;
                # opening the session and the first run are set-up.
                session = SynthesisSession(goal.config)
                session.run(goal.problem, config=goal.config)
                setup_s += time.perf_counter() - began
            if tracer is not None:
                tracer.enter_root()
            pauses.total_s, pauses.window_open = 0.0, True
            began = time.perf_counter()
            try:
                if session is None:
                    session = SynthesisSession(goal.config, store=store_path)
                result = session.run(goal.problem, config=goal.config)
                session.close()
            finally:
                elapsed = time.perf_counter() - began
                pauses.window_open = False
                if tracer is not None:
                    tracer.exit_root()
        except Exception:  # a crashing goal is a counted failure, not a crash
            error = traceback.format_exc()
            if elapsed is None:
                elapsed = time.perf_counter() - began
        outcomes.append({
            "goal": goal.id,
            "seconds": elapsed,
            "gc_s": pauses.total_s,
            "error": error,
            "success": result is not None and result.success,
            "timed_out": result is not None and result.timed_out,
            "program": result.program if result is not None else None,
            "text": result.pretty() if result is not None and result.program is not None else None,
            "metrics": result.metrics if result is not None else None,
        })
        # Keep only what the checks need: a finished goal's problem, session
        # and result are garbage in a caller's loop, so they are here too.
        del result, session
        goal.problem = None

    gc.callbacks.remove(pauses)
    if tracer is not None:
        tracer.uninstall()

    expected = load_expected()
    counters: Dict[str, int] = {}
    records = []
    for outcome in outcomes:
        _sum_counters(outcome["metrics"], counters)
        records.append({
            "goal": outcome["goal"],
            "seconds": outcome["seconds"],
            "gc_s": outcome["gc_s"],
            "failure": _classify(engine, outcome["goal"], outcome, expected, args.verified),
            "program": outcome["text"],
            "error": outcome["error"],
        })
    # The geometric mean is taken over collector-free goal times: a full
    # collection freeing an earlier goal's garbage (0.5-0.9 s after A12 or
    # A2) lands on whichever goal runs next, and on a 2 ms goal it would
    # move the mean of 19 goals by a quarter.  synth_s keeps every pause.
    mutator = [r["seconds"] - r["gc_s"] for r in records]
    record: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "pass_index": args.pass_index,
        "traced": bool(args.trace),
        "order": [goal.id for goal in goals],
        "setup_s": setup_s,
        "synth_s": sum(r["seconds"] for r in records),
        "geomean_solve_ms": 1000.0 * math.exp(sum(math.log(t) for t in mutator) / len(mutator)),
        "peak_rss_mb": peak_rss_mb(),
        "goals": records,
        "counters": counters,
    }
    if tracer is not None:
        record["layers"] = tracer.report()
    return record


def populate(args: argparse.Namespace) -> Dict[str, Any]:
    """The paper_store set-up: one untimed cold pass writing the store."""

    start = time.perf_counter()
    engine = _import_engine()
    for goal_id in goal_order(args.workload, args.seed, -1):
        goal = Goal(engine, goal_id)
        with engine["SynthesisSession"](goal.config, store=args.populate) as session:
            session.run(goal.problem, config=goal.config)
    return {"populate_s": time.perf_counter() - start}


def load_expected() -> Dict[str, str]:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_GOALS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", default=BENCH_DIR,
                        help="scratch directory for per-pass store copies")
    parser.add_argument("--store-template", help="populated store to copy (paper_store)")
    parser.add_argument("--verified", type=lambda text: text.split(","), default=[],
                        help="comma-separated goals whose expected program passed "
                             "the tree-backend re-check earlier in this run")
    parser.add_argument("--setup-only", action="store_true",
                        help="time the set-up alone and exit (extra setup_s samples)")
    parser.add_argument("--populate", metavar="STORE",
                        help="run the untimed cold pass that fills STORE, then exit")
    args = parser.parse_args(argv)
    if args.workload == "paper_store" and not (args.populate or args.store_template):
        parser.error("paper_store needs --store-template (or --populate)")
    job: Callable[[argparse.Namespace], Dict[str, Any]] = populate if args.populate else run_pass
    print(json.dumps(job(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
