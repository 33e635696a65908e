#!/usr/bin/env bash
# Repo health gate: lint (when ruff is installed) + the tier-1 test suite.
# Usage: scripts/check.sh [extra pytest args]
set -euo pipefail

cd "$(dirname "$0")/.."

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff =="
    ruff check src tests
else
    echo "== ruff not installed; skipping lint (pip install ruff to enable) =="
fi

echo "== tier-1 tests =="
PYTHONPATH=src python -m pytest -x -q "$@"

echo "== benchmark self-tests (perfbench) =="
# The tier-1 testpaths cover only tests/, but perfbench/tracing.py wraps
# program symbols by name (parse_script, LeaseManager methods, ...): a
# rename there breaks the benchmark, and these ~15 s of self-tests are
# where it shows (MissingBoundary) before the benchmark itself runs.
python -m pytest perfbench -q

echo "== perf smoke (wall-clock guard) =="
# Small-dataset run of the perf harness doubling as a regression gate:
# the smoke suite finishes well under a second on a laptop, so a 60 s
# ceiling only trips on order-of-magnitude regressions (or hangs), never
# on shared-runner noise.  Writes to a scratch path so the checked-in
# BENCH_perf.json (full-mode numbers) is not clobbered.
python benchmarks/bench_perf.py --smoke --guard-seconds 60 \
    --output "$(mktemp -d)/BENCH_perf_smoke.json"

echo "== parallel smoke (2-worker pool, digest + simulated-time parity) =="
# The same smoke suite with map compute dispatched to a 2-worker pool.
# The harness itself asserts pool runs hash identically to inline runs
# on every workload, so this catches any divergence the pool could
# introduce; tests/test_parallel.py (tier-1, above) covers the full
# engine x mode x format x pool-size matrix.  No wall-clock guard: on a
# 1-core runner the pool measures IPC overhead, not speedup.
python benchmarks/bench_perf.py --smoke --parallel 2 \
    --output "$(mktemp -d)/BENCH_perf_parallel_smoke.json"

echo "== concurrency smoke (scheduler policies, shared cluster) =="
# Small mixed workload under every scheduling policy on both engines;
# cross-checks rows against solo runs and fails if fair-share does not
# beat FIFO ad-hoc latency.  The tier-1 run above already covers the
# deterministic-concurrency and differential-oracle suites
# (tests/test_scheduler.py, tests/test_differential_oracle.py).
python benchmarks/bench_concurrency.py --smoke \
    --output "$(mktemp -d)/BENCH_concurrency_smoke.json"

echo "== llap smoke (persistent daemons + caches, oracle-checked) =="
# Repeated-query workload on all engines: every row cross-checked
# against the local oracle, and the run fails unless warm llap beats
# both baselines >=3x, warm fragment dispatch undercuts hadoop's
# per-job startup, and re-scans hit the decoded-stripe cache.  The
# wall-clock guard only trips on order-of-magnitude regressions.
python benchmarks/bench_llap.py --smoke --guard-seconds 60 \
    --output "$(mktemp -d)/BENCH_llap_smoke.json"

echo "== chaos smoke (seeded fault schedules, four invariants) =="
# A couple of randomized-but-seeded fault + membership schedules per
# engine, each asserting the four chaos invariants (oracle-identical
# rows, balanced lease ledger, cache coherence, no stuck query).  The
# wall-clock guard only trips on order-of-magnitude regressions.
python benchmarks/bench_chaos.py --smoke --guard-seconds 120 \
    --output "$(mktemp -d)/BENCH_chaos_smoke.json"

echo "== serving smoke (open-loop traffic, SLO metrics per policy) =="
# Seeded bursty arrivals (Zipf-skewed query mix, sessions over pools)
# replayed under every admission policy on a small llap cluster; fails
# unless every policy reports latency percentiles and at least one
# query completes.  The wall-clock guard only trips on order-of-
# magnitude kernel regressions (or a stuck scheduler).
python benchmarks/bench_serving.py --smoke --guard-seconds 60 \
    --output "$(mktemp -d)/BENCH_serving_smoke.json"

echo "== skew smoke (stats-driven split shuffle, oracle-checked) =="
# One Zipf-1.6 join per engine with splitting on and off: rows must be
# byte-identical to the local oracle both ways, and at least two
# engines must collapse the hot reducer's byte share >=2x.  The
# wall-clock guard only trips on order-of-magnitude regressions.
python benchmarks/bench_skew.py --smoke --guard-seconds 60 \
    --output "$(mktemp -d)/BENCH_skew_smoke.json"

if [[ "${CHECK_CHAOS_FULL:-0}" == "1" ]]; then
    echo "== chaos full (>=25 schedules + replay determinism) =="
    # Full sweep (9 seeds x 3 engines plus a replay pass per engine)
    # writing the committed availability/recovery report to
    # results/BENCH_chaos.json.  Opt-in because it takes a while; run it
    # before committing fault-, membership- or scheduler-sensitive
    # changes.
    python benchmarks/bench_chaos.py
fi

if [[ "${CHECK_LLAP_FULL:-0}" == "1" ]]; then
    echo "== llap full (warm/cold + cache economics report) =="
    # Full-size repeated workload writing the committed report to
    # results/BENCH_llap.json.  Opt-in because it takes a while; run it
    # before committing llap- or cache-sensitive changes.
    python benchmarks/bench_llap.py
fi

if [[ "${CHECK_CONCURRENCY_FULL:-0}" == "1" ]]; then
    echo "== concurrency full (policy comparison report) =="
    # Full-size workload (more queries, bigger warehouse) writing the
    # policy comparison to results/.  Opt-in because it takes a while;
    # run it before committing scheduler- or lease-sensitive changes.
    python benchmarks/bench_concurrency.py
fi

if [[ "${CHECK_SERVING_FULL:-0}" == "1" ]]; then
    echo "== serving full (>=10k queries on a 101-node cluster + soak) =="
    # Full traffic run (3 policies x 4000 queries, 2000 sessions)
    # writing the committed SLO report to results/BENCH_serving.json,
    # plus the long-run soak test (liveness, clean ledger, stable RSS
    # across thousands of queries with deadlines and cancellations).
    # Opt-in because it takes a while; run it before committing kernel-,
    # scheduler- or lease-sensitive changes.
    python benchmarks/bench_serving.py --guard-seconds 600
    CHECK_SERVING_FULL=1 PYTHONPATH=src python -m pytest \
        tests/test_serving.py::TestServingSoak -q
fi

if [[ "${CHECK_PARALLEL_FULL:-0}" == "1" ]]; then
    echo "== parallel full (4-worker pool vs inline, speedup gate) =="
    # Full-dataset run with a 4-worker pool: every workload's pool
    # digest must match its inline digest (asserted by the harness),
    # and on a host with >=4 cores the aggregate speedup must reach
    # 2x.  On smaller hosts the run still checks correctness but the
    # speedup gate disarms — a 1-core box can only measure overhead.
    python benchmarks/bench_perf.py --parallel 4 \
        --output /tmp/BENCH_perf_parallel_full.json
    python - <<'PY'
import json, os, sys
report = json.load(open("/tmp/BENCH_perf_parallel_full.json"))
inline = sum(w["wall_seconds"] for w in report["workloads"])
pooled = sum(w["parallel_wall_seconds"] for w in report["workloads"])
speedup = inline / pooled if pooled else 0.0
print(f"aggregate pool speedup: {speedup:.2f}x over {len(report['workloads'])} workloads")
if (os.cpu_count() or 1) >= 4 and speedup < 2.0:
    sys.exit(f"PARALLEL REGRESSION: aggregate speedup {speedup:.2f}x < 2.0x "
             f"with 4 workers on a {os.cpu_count()}-core host")
PY
fi

if [[ "${CHECK_SKEW_FULL:-0}" == "1" ]]; then
    echo "== skew full (3 skew factors x 3 engines, committed report) =="
    # Full sweep over Zipf 0.8/1.2/1.6 writing the committed tail-
    # reduction report to results/BENCH_skew.json.  Opt-in because it
    # takes a while; run it before committing optimizer-, stats- or
    # shuffle-sensitive changes.
    python benchmarks/bench_skew.py
fi

if [[ "${CHECK_PERF_FULL:-0}" == "1" ]]; then
    echo "== perf full (compare vs committed baseline) =="
    # Full-dataset run compared against the checked-in BENCH_perf.json:
    # fails on >25 % total wall-clock regression over the workloads the
    # two files share.  Opt-in (CHECK_PERF_FULL=1) because the full
    # suite takes a few seconds and shared runners are noisy; run it
    # before committing any perf-sensitive change.
    python benchmarks/bench_perf.py --compare BENCH_perf.json \
        --output "$(mktemp -d)/BENCH_perf_full.json"
fi
