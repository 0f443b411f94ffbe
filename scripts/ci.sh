#!/usr/bin/env bash
# Lightweight CI gate: the tier-1 tests under both evaluation backends, then
# every bench --check gate and the static-analysis checks.
#
#   scripts/ci.sh                   # tier-1 pytest + every gate below
#   CI_SKIP_TESTS=1 scripts/ci.sh   # gates only
#
# Bench reports are written to BENCH_<subsystem>.json at the repo root and
# checked in per PR, forming the committed bench trajectory.
#
# In order:
#
# * tier-1 tests, once with the default compiled backend and once with
#   REPRO_EVAL_BACKEND=tree.  The backend differential tests in both passes
#   compare the compiled backend's baked frame slots against the tree
#   walker's innermost-first frame scan.
# * interp gate (bench_interp --check): the compiled backend re-evaluates
#   synthesized programs at >= 3x the tree walker's throughput on >= 3
#   benchmarks, with identical programs.
# * cache and state smokes (bench_cache / bench_state --check): >= 3
#   benchmarks show a >= 2x reduction (redundant spec executions for the
#   memo, reset-closure replays for the snapshots), with identical programs.
# * store-persistence gate: bench_cache runs twice against one SQLite
#   spec-outcome store (repro.synth.store).  The first pass populates it;
#   the second -- a separate process -- must answer >= 1 spec execution
#   from the store while synthesizing identical programs.
# * parallel gates (repro.synth.parallel): a --jobs 2 smoke over a small
#   subset gated on program identity with the serial run, then the full
#   bench_parallel --check (default --jobs 4), which also requires a
#   >= 1.5x wall-clock speedup over the synthetic registry.
# * annotation lint and soundness sweep (repro.analysis): the linter finds
#   nothing over every registered benchmark, and the sweep observes no
#   dynamic effect the static footprint fails to subsume.
# * static analysis gate (bench_analysis --check): >= 15% fewer dynamic
#   evaluation operations with static pruning on, identical programs.
# * ORM index gate (bench_orm --check): >= 5x indexed lookup throughput on a
#   1e5-row battery plus a seeded scale synthesis smoke.
# * observability gate (bench_obs --check): disabled tracing costs <= 2% on
#   the hot spec-evaluation path, and traced runs produce well-formed JSONL
#   traces whose phase spans cover >= 95% of the root span.
# * end-to-end correctness (e2ebench): the paper_warm selfcheck runs that
#   workload in two fresh interpreters with random hash seeds and requires
#   identical deterministic counters; one paper_cold pass must synthesize
#   every Table 1 goal correctly (its last output line reports
#   "correct": true).

set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

if [[ "${CI_SKIP_TESTS:-0}" != "1" ]]; then
    echo "== tier-1 tests (compiled backend default) =="
    python -m pytest -x -q
    echo "== tier-1 tests (tree backend fallback) =="
    REPRO_EVAL_BACKEND=tree python -m pytest -x -q
fi

echo "== interp bench gate =="
INTERP_REPORT="${CI_INTERP_REPORT:-BENCH_interp.json}"
python benchmarks/bench_interp.py \
    --timeout "${REPRO_BENCH_TIMEOUT:-60}" \
    --out "$INTERP_REPORT" \
    --min-benchmarks 3 \
    --check

echo "== cache bench smoke =="
REPORT="${CI_BENCH_REPORT:-BENCH_cache.json}"
python benchmarks/bench_cache.py \
    --timeout "${REPRO_BENCH_TIMEOUT:-60}" \
    --out "$REPORT" \
    --min-benchmarks 3 \
    --check

echo "== state bench smoke =="
STATE_REPORT="${CI_STATE_REPORT:-BENCH_state.json}"
python benchmarks/bench_state.py \
    --timeout "${REPRO_BENCH_TIMEOUT:-60}" \
    --out "$STATE_REPORT" \
    --min-benchmarks 3 \
    --check

echo "== store persistence gate =="
STORE_DB="${CI_STORE_DB:-bench_outcome_store.sqlite}"
STORE_REPORT="${CI_STORE_REPORT:-bench_store_report.json}"
rm -f "$STORE_DB" "$STORE_DB-wal" "$STORE_DB-shm"
# Pass 1 populates the store; pass 2 (a fresh process) must hit it.
python benchmarks/bench_cache.py \
    --benchmarks S1 S4 \
    --timeout "${REPRO_BENCH_TIMEOUT:-60}" \
    --store "$STORE_DB" \
    --min-benchmarks 2 \
    --check > /dev/null
python benchmarks/bench_cache.py \
    --benchmarks S1 S4 \
    --timeout "${REPRO_BENCH_TIMEOUT:-60}" \
    --store "$STORE_DB" \
    --out "$STORE_REPORT" \
    --min-benchmarks 2 \
    --min-store-hits 1 \
    --check

echo "== parallel identity smoke (--jobs 2) =="
python benchmarks/bench_parallel.py \
    --benchmarks S1 S4 S5 \
    --jobs 2 \
    --repeat 1 \
    --timeout "${REPRO_BENCH_TIMEOUT:-60}" \
    --min-speedup 0 \
    --check > /dev/null

echo "== parallel speedup gate (--jobs 4) =="
PARALLEL_REPORT="${CI_PARALLEL_REPORT:-BENCH_parallel.json}"
python benchmarks/bench_parallel.py \
    --timeout "${REPRO_BENCH_TIMEOUT:-60}" \
    --out "$PARALLEL_REPORT" \
    --check

echo "== annotation lint gate =="
python scripts/lint_annotations.py --check

echo "== soundness sweep gate =="
python scripts/soundness_sweep.py \
    --check \
    --samples "${CI_SOUNDNESS_SAMPLES:-10}" \
    --search-limit "${CI_SOUNDNESS_SEARCH_LIMIT:-40}"

echo "== static analysis bench gate =="
ANALYSIS_REPORT="${CI_ANALYSIS_REPORT:-BENCH_analysis.json}"
python benchmarks/bench_analysis.py \
    --timeout "${REPRO_BENCH_TIMEOUT:-60}" \
    --out "$ANALYSIS_REPORT" \
    --min-benchmarks 3 \
    --check

echo "== orm index gate (1e5-row lookup battery + seeded scale smoke) =="
ORM_REPORT="${CI_ORM_REPORT:-BENCH_orm.json}"
python benchmarks/bench_orm.py \
    --timeout "${REPRO_BENCH_TIMEOUT:-60}" \
    --out "$ORM_REPORT" \
    --min-benchmarks 3 \
    --check

echo "== observability gate (disabled-tracing overhead + trace validity) =="
OBS_REPORT="${CI_OBS_REPORT:-BENCH_obs.json}"
python benchmarks/bench_obs.py \
    --timeout "${REPRO_BENCH_TIMEOUT:-60}" \
    --out "$OBS_REPORT" \
    --min-benchmarks 3 \
    --check

echo "== e2ebench correctness (paper_warm selfcheck + one paper_cold pass) =="
python3 e2ebench/run.py selfcheck --workload paper_warm
E2E_LAST="$(python3 e2ebench/run.py --workload paper_cold --seed 1 --seconds 0 --trace 0 | tail -n 1)"
if ! grep -q '"correct": true' <<< "$E2E_LAST"; then
    echo "e2ebench paper_cold pass not correct: $E2E_LAST" >&2
    exit 1
fi

echo "== ok: reports at $INTERP_REPORT, $REPORT, $STATE_REPORT, $STORE_REPORT, $PARALLEL_REPORT, $ANALYSIS_REPORT, $ORM_REPORT and $OBS_REPORT =="
