"""End-to-end synthesis benchmark: the paper suite plus the 1e5-row scale cells.

One run of one workload::

    python3 e2ebench/run.py --workload paper_cold --seed 1 --seconds 20 --trace 0

runs serial passes, each in a fresh interpreter (``passes.py``), while the
next pass can finish within ``--seconds``; checks every synthesized program,
prints every metric by name and unit, and ends with one JSON line::

    {"correct": true, "attempted": 19, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``END_TO_END``);
with ``--trace 1`` the run alternates untraced and traced passes and
reports the per-layer ones (``PER_LAYER``): each layer's self time, calls
and share of the traced ``synth_s``, the deterministic work counters from
``result.metrics``, useful-to-attempt ratios, trace coverage and tracing
overhead.  ``--out FILE`` appends the full run record to FILE (JSON lines).

Other commands::

    python3 e2ebench/run.py compare BASE.jsonl NEW.jsonl [--same-code]
    python3 e2ebench/run.py selfcheck --workload scale_cold [--seed 1]
    python3 e2ebench/run.py manifest          # rewrites BENCHMARK.json

``compare`` prints, per workload, every end-to-end metric and a per-layer
delta table (self time, calls, counters); with ``--same-code`` it exits 1
when the deterministic counters of a workload differ.  ``selfcheck`` runs
one workload twice and fails when its counters differ between the runs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from layers import REPORTED_LAYERS
from passes import BENCH_DIR, COUNTERS, FAILURE_CLASSES, ROOT, WORKLOAD_GOALS

PASS_SCRIPT = os.path.join(BENCH_DIR, "passes.py")

#: Seconds one run measures (``BENCHMARK.json``'s ``run_seconds``).
RUN_SECONDS = 20

#: Every pass of a run must end by then, so the run exits within 180 s.
RUN_DEADLINE_S = 165.0

#: Set-ups measured per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3

WORKLOADS: Dict[str, str] = {
    "paper_cold": "the 19 Table 1 goals, each in a new store-less session: the paper's Table 1 path through every layer",
    "paper_store": "the 19 goals in sessions on a store an untimed cold pass filled: evaluation bypassed, cache reads and store hits",
    "paper_warm": "A1/A3/A4/A9 run twice per session, second run timed: spec search skipped by hints, guard search in merge",
    "scale_cold": "SC1 and SC2 over 1e5 seeded rows, cold: data layer and spec-setup seeding dominate, enumeration is small",
}

#: (name, unit, better, bound) of the end-to-end metrics (tracing off).
#: The time bounds are wide because the machine's speed drifts between runs:
#: on a shared 2-core box the same cold pass measured 11-21 s within an hour,
#: while passes inside one run agree within about 5%.  Peak RSS does not
#: drift with machine speed; it moves with goal order (which goal's garbage
#: is still uncollected when A12 peaks).
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("synth_s", "s", "lower", 0.25),
    ("geomean_solve_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
)

_HIGHER_COUNTERS = {
    "analysis.static_prunes", "analysis.footprint_hits", "cache.hits",
    "store.hits", "restore.pure_skips", "orm.index_hits",
}


def _per_layer() -> List[Tuple[str, str, str]]:
    metrics: List[Tuple[str, str, str]] = []
    for layer in REPORTED_LAYERS:
        metrics.append((f"{layer}.self_s", "s", "lower"))
        metrics.append((f"{layer}.calls", "count", "lower"))
        metrics.append((f"{layer}.share", "ratio", "lower"))
    metrics += [
        ("trace.synth_s", "s", "lower"),
        ("trace.coverage", "ratio", "higher"),
        ("trace.overhead", "ratio", "lower"),
    ]
    for name in COUNTERS:
        metrics.append((name, "count", "higher" if name in _HIGHER_COUNTERS else "lower"))
    metrics += [
        ("enumerate.candidates", "count", "lower"),
        ("gc.collections.gen0", "count", "lower"),
        ("gc.collections.gen1", "count", "lower"),
        ("gc.collections.gen2", "count", "lower"),
        ("cache.hit_ratio", "ratio", "higher"),
        ("analysis.prune_ratio", "ratio", "higher"),
        ("search.push_ratio", "ratio", "higher"),
    ]
    return metrics


#: (name, unit, better) of the per-layer metrics (traced run only).
PER_LAYER = tuple(_per_layer())


def manifest() -> Dict[str, Any]:
    return {
        "command": ["python3", "e2ebench/run.py"],
        "paths": ["e2ebench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


# --------------------------------------------------------------------- passes


def _child_env() -> Dict[str, str]:
    # REPRO_* variables select engine modes (eval backend, pruning, a trace
    # sink); the benchmark measures the defaults.
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}


def _child(args: Sequence[str], deadline: float) -> Tuple[Optional[dict], str]:
    """Run ``passes.py`` with ``args``; return (record, failure class)."""

    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        return None, "timeout"
    try:
        proc = subprocess.run(
            [sys.executable, PASS_SCRIPT, *args],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        return None, "timeout"
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None, "exception"
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), ""


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """One benchmark run: set-up, then passes until ``seconds`` have passed."""

    deadline = time.monotonic() + RUN_DEADLINE_S
    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    try:
        base = ["--workload", workload, "--seed", str(seed), "--workdir", workdir]
        populate_s = 0.0
        lost: List[str] = []
        if workload == "paper_store":
            store = os.path.join(workdir, "template.sqlite")
            record, failure = _child(base + ["--populate", store], deadline)
            if record is None:
                lost.append(failure)
            else:
                populate_s = record["populate_s"]
                base += ["--store-template", store]
        passes: List[dict] = []
        started = time.monotonic()
        index = 0
        previous = 0.0
        verified: Set[str] = set()
        while not lost:
            # Start a pass only if it can finish within ``seconds`` (judged
            # by the previous pass), after the minimum: one pass, or one
            # untraced plus one traced pass.
            traced = trace and index % 2 == 1
            enough = index >= (2 if trace else 1)
            if enough and time.monotonic() - started + previous > seconds:
                break
            began = time.monotonic()
            record, failure = _child(
                base + ["--pass-index", str(index), "--trace", str(int(traced)),
                        "--verified", ",".join(sorted(verified))],
                deadline,
            )
            previous = time.monotonic() - began
            index += 1
            if record is None:
                lost.append(failure)
                break
            passes.append(record)
            verified.update(g["goal"] for g in record["goals"] if g["failure"] is None)
        # setup_s is a median over at least SETUP_SAMPLES set-ups: top the
        # passes up with set-up-only processes.
        setup_samples = [p["setup_s"] for p in passes]
        while not lost and len(setup_samples) < SETUP_SAMPLES:
            record, failure = _child(
                base + ["--pass-index", str(index), "--setup-only"], deadline
            )
            index += 1
            if record is None:
                lost.append(failure)
                break
            setup_samples.append(record["setup_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "populate_s": populate_s,
        "passes": passes,
        "setup_samples": setup_samples,
        "lost_passes": lost,
    }


# --------------------------------------------------------------------- metrics


def failures(run: Dict[str, Any]) -> Dict[str, int]:
    """Failed goal-runs by class (a lost pass fails all its goals)."""

    counts = {name: 0 for name in FAILURE_CLASSES}
    for record in run["passes"]:
        for goal in record["goals"]:
            if goal["failure"]:
                counts[goal["failure"]] += 1
    for failure in run["lost_passes"]:
        counts[failure] += len(WORKLOAD_GOALS[run["workload"]])
    return counts


def attempted(run: Dict[str, Any]) -> int:
    goals = len(WORKLOAD_GOALS[run["workload"]])
    return goals * (len(run["passes"]) + len(run["lost_passes"]))


def counters_of(run: Dict[str, Any]) -> Optional[Dict[str, int]]:
    """The run's deterministic counters, or None if its passes disagree."""

    distinct = {json.dumps(p["counters"], sort_keys=True) for p in run["passes"]}
    return json.loads(distinct.pop()) if len(distinct) == 1 else None


def end_to_end(run: Dict[str, Any]) -> Dict[str, float]:
    untraced = [p for p in run["passes"] if not p["traced"]]
    if not untraced:
        return {}
    return {
        "synth_s": statistics.median([p["synth_s"] for p in untraced]),
        "geomean_solve_ms": statistics.median([p["geomean_solve_ms"] for p in untraced]),
        "setup_s": run["populate_s"] + statistics.median(run["setup_samples"]),
        "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in untraced]),
    }


def per_layer(run: Dict[str, Any]) -> Dict[str, float]:
    traced = [p for p in run["passes"] if p["traced"]]
    untraced = [p for p in run["passes"] if not p["traced"]]
    if not traced or not untraced:
        return {}
    values: Dict[str, float] = {}
    traced_s = statistics.median([p["synth_s"] for p in traced])
    for layer in REPORTED_LAYERS:
        self_s = statistics.median([p["layers"]["layers"][layer]["self_s"] for p in traced])
        values[f"{layer}.self_s"] = self_s
        values[f"{layer}.calls"] = traced[0]["layers"]["layers"][layer]["calls"]
        values[f"{layer}.share"] = self_s / traced_s
    values["trace.synth_s"] = traced_s
    values["trace.coverage"] = 1.0 - values["session.share"]
    values["trace.overhead"] = traced_s / statistics.median([p["synth_s"] for p in untraced])
    counters = traced[0]["counters"]
    values.update(counters)
    candidates = traced[0]["layers"]["candidates"]
    values["enumerate.candidates"] = candidates
    for gen in range(3):
        values[f"gc.collections.gen{gen}"] = statistics.median(
            [p["layers"]["gc_collections"][gen] for p in traced]
        )
    lookups = counters["cache.hits"] + counters["cache.misses"]
    values["cache.hit_ratio"] = counters["cache.hits"] / lookups if lookups else 0.0
    tried = counters["analysis.static_prunes"] + counters["search.evaluated"]
    values["analysis.prune_ratio"] = counters["analysis.static_prunes"] / tried if tried else 0.0
    values["search.push_ratio"] = counters["search.pushed"] / candidates if candidates else 0.0
    return values


def summarize(run: Dict[str, Any]) -> Dict[str, Any]:
    """The run record plus its metrics, failures and counters."""

    units = {n: u for n, u, *_ in END_TO_END + PER_LAYER}
    values = per_layer(run) if run["trace"] else end_to_end(run)
    failed = failures(run)
    run["metrics"] = {n: {"value": v, "unit": units[n]} for n, v in values.items()}
    run["failures"] = failed
    run["attempted"] = attempted(run)
    run["failed"] = sum(failed.values())
    run["counters"] = counters_of(run)
    return run


def print_run(run: Dict[str, Any]) -> None:
    untraced = sum(1 for p in run["passes"] if not p["traced"])
    print(f"workload {run['workload']}  seed {run['seed']}  "
          f"passes {len(run['passes'])} ({untraced} untraced)  "
          f"lost passes {len(run['lost_passes'])}")
    for record in run["passes"]:
        kind = "traced" if record["traced"] else "untraced"
        print(f"  pass {record['pass_index']} {kind}: synth_s {record['synth_s']:.3f} s  "
              f"setup_s {record['setup_s']:.3f} s  order {' '.join(record['order'])}")
    for name, metric in run["metrics"].items():
        print(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    ratio = run["failed"] / run["attempted"] if run["attempted"] else 1.0
    classes = ", ".join(f"{k} {v}" for k, v in run["failures"].items())
    print(f"  failed_ratio {ratio:.4f} ({run['failed']}/{run['attempted']} goal-runs; {classes})")
    if run["counters"] is None:
        print("  WARNING: deterministic counters differ between passes of this run")
    for record in run["passes"]:
        for goal in record["goals"]:
            if goal["failure"]:
                print(f"  FAIL pass {record['pass_index']} {goal['goal']}: {goal['failure']}")
                if goal["error"]:
                    print("    " + goal["error"].strip().replace("\n", "\n    "))


# --------------------------------------------------------------------- compare


def _load(path: str) -> List[Dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _medians(runs: List[Dict[str, Any]], names: Sequence[str]) -> Dict[str, float]:
    out = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
        if values:
            out[name] = statistics.median(values)
    return out


def _delta_row(name: str, base: Optional[float], new: Optional[float]) -> str:
    if base is None or new is None:
        return f"  {name:<28} {'-' if base is None else f'{base:.6g}':>14} {'-' if new is None else f'{new:.6g}':>14}"
    change = f"{(new - base) / base:+.1%}" if base else ("=" if new == base else "new")
    return f"  {name:<28} {base:>14.6g} {new:>14.6g} {new - base:>+14.6g} {change:>8}"


def compare(base_path: str, new_path: str, same_code: bool) -> int:
    base_runs, new_runs = _load(base_path), _load(new_path)
    mismatched = []
    workloads = [w for w in WORKLOADS if any(r["workload"] == w for r in base_runs + new_runs)]
    for workload in workloads:
        base = [r for r in base_runs if r["workload"] == workload]
        new = [r for r in new_runs if r["workload"] == workload]
        print(f"== {workload}: {len(base)} base run(s), {len(new)} new run(s)")
        print(f"  {'metric':<28} {'base':>14} {'new':>14} {'delta':>14} {'change':>8}")
        names = [n for n, *_ in END_TO_END]
        b_e2e = _medians([r for r in base if not r["trace"]], names)
        n_e2e = _medians([r for r in new if not r["trace"]], names)
        for name in names:
            print(_delta_row(name, b_e2e.get(name), n_e2e.get(name)))
        for side, runs in (("base", base), ("new", new)):
            failed = sum(r["failed"] for r in runs)
            tried = sum(r["attempted"] for r in runs)
            print(f"  failed_ratio ({side}) {failed}/{tried}")
        layer_names = [n for n, *_ in PER_LAYER if n not in COUNTERS]
        b_layer = _medians([r for r in base if r["trace"]], layer_names)
        n_layer = _medians([r for r in new if r["trace"]], layer_names)
        if b_layer or n_layer:
            print("  per-layer (traced runs):")
            for name in layer_names:
                print(_delta_row(name, b_layer.get(name), n_layer.get(name)))
        counter_sets = {json.dumps(r["counters"], sort_keys=True) for r in base + new}
        b_counters = next((r["counters"] for r in base if r["counters"]), {}) or {}
        n_counters = next((r["counters"] for r in new if r["counters"]), {}) or {}
        print("  counters:")
        for name in COUNTERS:
            print(_delta_row(name, b_counters.get(name), n_counters.get(name)))
        if len(counter_sets) != 1:
            mismatched.append(workload)
    if mismatched:
        print(f"deterministic counters differ on: {', '.join(mismatched)}")
        if same_code:
            return 1
    return 0


def selfcheck(workload: str, seed: int) -> int:
    runs = [summarize(run_workload(workload, seed, 0.0, False)) for _ in range(2)]
    first, second = (r["counters"] for r in runs)
    for run in runs:
        print_run(run)
    if first is None or first != second:
        print(f"selfcheck FAILED: {workload} counters differ between runs: {first} vs {second}")
        return 1
    print(f"selfcheck ok: {workload} counters identical across 2 runs")
    return 0


# --------------------------------------------------------------------- main


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # A terminated run raises instead of dying, so the running pass process
    # is killed and waited for, and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"e2ebench: no engine sources under {ROOT}/src", file=sys.stderr)
        return 2
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base")
        parser.add_argument("new")
        parser.add_argument("--same-code", action="store_true",
                            help="exit 1 when a workload's counters differ")
        args = parser.parse_args(argv[1:])
        return compare(args.base, args.new, args.same_code)
    if argv[:1] == ["selfcheck"]:
        parser = argparse.ArgumentParser(prog="run.py selfcheck")
        parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
        parser.add_argument("--seed", type=int, default=1)
        args = parser.parse_args(argv[1:])
        return selfcheck(args.workload, args.seed)
    if argv[:1] == ["manifest"]:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as handle:
            json.dump(manifest(), handle, indent=2)
            handle.write("\n")
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full run record to this JSON-lines file")
    args = parser.parse_args(argv)
    run = summarize(run_workload(args.workload, args.seed, args.seconds, bool(args.trace)))
    print_run(run)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(run) + "\n")
    if not run["metrics"]:
        print("e2ebench: no pass completed; nothing to report", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": run["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
