"""Speedup report for the parallel synthesis subsystem (repro.synth.parallel).

The harness runs the selected registry benchmarks (``--repeat`` times each)
twice and emits a JSON report comparing wall-clock:

* **serial** -- the harness's standard isolated-cell execution
  (``session.sweep(..., warm=False)``): every cell builds a fresh problem in
  a throwaway session, exactly how Table 1 / Figure 7 measure;
* **parallel** -- the same cells through an ``--jobs``-worker pool, with one
  benchmark's repeats batched onto one worker.  Both levers of the
  subsystem contribute and are deliberately measured *together*: distinct
  benchmarks fan out across workers (wall-clock wins scale with cores), and
  each worker holds a persistent warm session, so a benchmark's repeats
  replay its memo and snapshot recordings instead of rebuilding (wins even
  on a single core, which is what keeps this gate meaningful on small CI
  boxes).

Every (benchmark, repeat) cell's synthesized program must be identical
between the two legs -- the parallel subsystem must never change synthesis
results -- and ``--check`` additionally gates on
``serial_s / parallel_s >= --min-speedup`` (default 1.5x at the default
``--jobs 4``).

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel.py --out parallel_report.json
    PYTHONPATH=src python benchmarks/bench_parallel.py --check          # CI gate
    PYTHONPATH=src python benchmarks/bench_parallel.py --jobs 2 \\
        --min-speedup 0 --check                                         # identity smoke
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
for _path in (_SRC, _HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.benchmarks import all_benchmarks, get_benchmark  # noqa: E402
from repro.synth.config import SynthConfig  # noqa: E402
from repro.synth.parallel import ParallelExecutor, await_cell  # noqa: E402
from repro.synth.session import SynthesisSession  # noqa: E402

SCHEMA_VERSION = 1

#: The synthetic registry group: the paper's S-benchmarks, cheap enough for
#: a CI gate but with enough spread (S6 dominates) to exercise scheduling.
DEFAULT_GROUP = "Synthetic"


def default_benchmarks() -> List[str]:
    return [benchmark.id for benchmark in all_benchmarks(group=DEFAULT_GROUP)]


def _run_serial(
    benchmark_ids: Sequence[str], repeat: int, timeout_s: float
) -> Dict[str, object]:
    """The serial leg: isolated cold cells, benchmark-major order."""

    config = SynthConfig.full(timeout_s=timeout_s)
    cells = [bid for bid in benchmark_ids for _ in range(repeat)]
    start = time.perf_counter()
    with SynthesisSession(config) as session:
        entries = session.sweep(cells, warm=False)
    elapsed = time.perf_counter() - start
    programs: Dict[str, List[Optional[str]]] = {bid: [] for bid in benchmark_ids}
    success = True
    for entry in entries:
        programs[entry.label].append(
            entry.result.pretty() if entry.result.program is not None else None
        )
        success = success and entry.success
    return {"elapsed_s": elapsed, "programs": programs, "success": success}


def _run_parallel(
    benchmark_ids: Sequence[str], repeat: int, timeout_s: float, jobs: int
) -> Dict[str, object]:
    """The parallel leg: one warm run-batch per benchmark, over the pool."""

    config = SynthConfig.full(timeout_s=timeout_s)
    start = time.perf_counter()
    with ParallelExecutor(jobs, base_config=config) as executor:
        cells = [(bid, get_benchmark(bid).make_config(config)) for bid in benchmark_ids]
        futures = [
            (bid, cell_config, executor.submit_cell(bid, cell_config, fresh=False, runs=repeat))
            for bid, cell_config in cells
        ]
        results = [
            (bid, await_cell(future, cell_config, runs=repeat))
            for bid, cell_config, future in futures
        ]
    elapsed = time.perf_counter() - start
    programs: Dict[str, List[Optional[str]]] = {}
    success = True
    for bid, payloads in results:
        texts: List[Optional[str]] = []
        for payload in payloads:
            if payload.program is not None:
                from repro.lang.pretty import pretty_block

                texts.append(pretty_block(payload.program))
            else:
                texts.append(None)
            success = success and payload.success
        # A failed run truncates the batch serially too, but pad defensively
        # so the identity comparison is positional.
        texts.extend([None] * (repeat - len(texts)))
        programs[bid] = texts
    return {"elapsed_s": elapsed, "programs": programs, "success": success}


def build_report(
    benchmark_ids: Sequence[str],
    repeat: int,
    timeout_s: float,
    jobs: int,
) -> Dict[str, object]:
    serial = _run_serial(benchmark_ids, repeat, timeout_s)
    parallel = _run_parallel(benchmark_ids, repeat, timeout_s, jobs)

    entries = []
    all_identical = True
    for bid in benchmark_ids:
        identical = serial["programs"][bid] == parallel["programs"][bid]
        all_identical = all_identical and identical
        entries.append(
            {
                "id": bid,
                "runs": repeat,
                "programs_identical": identical,
                "program": serial["programs"][bid][0],
            }
        )

    serial_s = float(serial["elapsed_s"])
    parallel_s = float(parallel["elapsed_s"])
    return {
        "schema_version": SCHEMA_VERSION,
        "generated_by": "benchmarks/bench_parallel.py",
        "jobs": jobs,
        "repeat": repeat,
        "timeout_s": timeout_s,
        "benchmarks": entries,
        "summary": {
            "benchmarks_run": len(entries),
            "cells_per_leg": len(entries) * repeat,
            "serial_s": round(serial_s, 4),
            "parallel_s": round(parallel_s, 4),
            "speedup": round(serial_s / max(parallel_s, 1e-9), 4),
            "all_programs_identical": all_identical,
            "all_success": bool(serial["success"] and parallel["success"]),
            "target": "identical programs; serial_s/parallel_s >= min-speedup",
        },
    }


def validate_report(report: Dict[str, object]) -> List[str]:
    """Schema errors in ``report`` (empty when well-formed)."""

    errors: List[str] = []
    if report.get("schema_version") != SCHEMA_VERSION:
        errors.append(f"schema_version != {SCHEMA_VERSION}")
    benchmarks = report.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        return errors + ["benchmarks must be a non-empty list"]
    for entry in benchmarks:
        missing = {"id", "runs", "programs_identical", "program"} - set(entry)
        if missing:
            errors.append(f"{entry.get('id', '?')}: missing keys {sorted(missing)}")
    summary = report.get("summary")
    if not isinstance(summary, dict) or not {
        "serial_s",
        "parallel_s",
        "speedup",
        "all_programs_identical",
    } <= set(summary):
        errors.append("summary missing speedup fields")
    return errors


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--benchmarks",
        nargs="*",
        default=None,
        help=f"registry benchmark ids to compare (default: the {DEFAULT_GROUP} group)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=int(os.environ.get("REPRO_JOBS", 4)),
        help="worker processes for the parallel leg",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=3,
        help="runs per benchmark in each leg",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=float(os.environ.get("REPRO_BENCH_TIMEOUT", 60.0)),
    )
    parser.add_argument("--out", help="write the JSON report to this path")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=1.5,
        help="with --check, required serial/parallel wall-clock ratio "
        "(0 gates on program identity only)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless the schema validates, programs are "
        "identical and the speedup target is met",
    )
    args = parser.parse_args(argv)

    benchmark_ids = (
        list(args.benchmarks) if args.benchmarks else default_benchmarks()
    )
    try:
        report = build_report(benchmark_ids, args.repeat, args.timeout, args.jobs)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    payload = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)

    if args.check:
        errors = validate_report(report)
        for error in errors:
            print(f"schema error: {error}", file=sys.stderr)
        summary = report["summary"]
        if not summary["all_programs_identical"]:
            print(
                "FAIL: the parallel run changed a synthesized program",
                file=sys.stderr,
            )
            return 1
        if not summary["all_success"]:
            print("FAIL: a benchmark failed to synthesize", file=sys.stderr)
            return 1
        if summary["speedup"] < args.min_speedup:
            print(
                f"FAIL: speedup {summary['speedup']}x below the "
                f"{args.min_speedup}x target "
                f"(serial {summary['serial_s']}s, parallel {summary['parallel_s']}s)",
                file=sys.stderr,
            )
            return 1
        if errors:
            return 1
        print(
            f"OK: {summary['speedup']}x speedup at --jobs {args.jobs} "
            f"(serial {summary['serial_s']}s, parallel {summary['parallel_s']}s); "
            "programs identical",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
