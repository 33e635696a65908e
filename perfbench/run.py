"""Host wall-clock benchmark of the reproduction: entry point.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tpch22 --seed 0 --seconds 32 --trace 0

``--trace 0`` runs the workload untraced in a fresh interpreter and
reports the end-to-end metrics.  ``--trace 1`` runs it in a fresh
interpreter alternating untraced and traced passes, and reports the
per-layer metrics of the traced passes; the ratio of the two kinds'
median pass times is ``trace.overhead``.  Times are host seconds
scaled by the host's speed, measured around every pass
(``hostspeed.py``); the host-second medians go to standard error.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("tpch22", "hibench_etl", "serving_llap")

#: (name, unit) of the end-to-end metrics, measured with tracing off.
END_TO_END = (
    ("queries_per_s", "1/s"),
    ("wall_s", "s"),
    ("query_p50_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of the per-layer metrics of a traced run.  ``*_s`` are
#: a layer's self seconds per pass; the rest are per-pass counts,
#: ratios, or the trace's own quality.
PER_LAYER = (
    ("sql.parse_s", "s"),
    ("sql.parse_calls", "count"),
    ("plan.analyze_s", "s"),
    ("plan.compile_s", "s"),
    ("plan.compiles", "count"),
    ("driver.result_cache_hit_ratio", "ratio"),
    ("stats.collect_s", "s"),
    ("stats.tables_collected", "count"),
    ("simulate.self_s", "s"),
    ("simulate.leases_s", "s"),
    ("simulate.lease_grants", "count"),
    ("exec.map_s", "s"),
    ("exec.map_batches", "count"),
    ("exec.rows_read", "count"),
    ("exec.reduce_s", "s"),
    ("exec.reduce_calls", "count"),
    ("shuffle.buffers_s", "s"),
    ("shuffle.bytes", "bytes"),
    ("storage.scan_s", "s"),
    ("storage.scan_calls", "count"),
    ("storage.encode_s", "s"),
    ("storage.hdfs_write_s", "s"),
    ("storage.llap_cache_hit_ratio", "ratio"),
    ("sched.submit_s", "s"),
    ("sched.submitted", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
)

#: Default ``--seconds``: BENCHMARK.json's ``run_seconds``.
RUN_SECONDS = 32.0
#: Warehouse set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: The traced run fails below this share of pass time attributed to layers.
MIN_COVERAGE = 0.95
#: The measurement is stopped, and the run fails, after this many seconds.
DEADLINE_S = 170.0


class RunFailed(RuntimeError):
    pass


def child(workload: str, seed: int, seconds: float, setups: int,
          traced: bool) -> dict:
    """One measurement in a fresh interpreter; returns its JSON result."""
    command = [sys.executable, str(HERE / "measure.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--setups", str(setups)]
    if traced:
        command.append("--traced")
    try:
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                   cwd=ROOT, timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{workload}: measurement exceeded {DEADLINE_S:g}s") from None
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RunFailed(f"{workload}: measurement exited {completed.returncode}")
    return json.loads(lines[-1])


def typical_pass_s(result: dict) -> float:
    """Seconds of a typical pass: the sum of each statement's median over
    the passes and the median of the rest of a pass (opening and closing
    the session).  Host noise that hits one statement of one pass is
    dropped with that statement's sample instead of moving the pass's
    total.  Serving passes have no statements of their own: there it is
    the median pass."""
    passes, statements = result["pass_s"], result["statement_s"]
    if not all(statements):
        return statistics.median(passes)
    rest = [total - sum(parts) for total, parts in zip(passes, statements)]
    return (sum(statistics.median(column) for column in zip(*statements))
            + statistics.median(rest))


def end_to_end(result: dict) -> dict:
    """The end-to-end metrics; every time is scaled by the host's speed
    (``hostspeed.py``)."""
    wall = typical_pass_s(result)
    operations = statistics.median(result["operations"])  # the same every pass
    # without per-statement latencies (serving arrivals interleave on
    # one simulated clock; hibench_etl has four unequal statements) it
    # is seconds per operation
    latencies = result["latencies_s"] or [wall / operations]
    return {
        "queries_per_s": operations / wall,
        "wall_s": wall,
        "query_p50_s": statistics.median(latencies),
        "setup_s": statistics.median(result["setup_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(traced: dict) -> dict:
    values = {}
    for name, _unit in PER_LAYER:
        if name.endswith("_s"):
            values[name] = traced["layers"].get(name[:-2], 0.0)
        else:
            values[name] = traced["counts"].get(name, 0.0)
    return values


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    result = child(workload, seed, seconds, 1 if trace else SETUPS, trace)
    if trace:
        values, units = per_layer(result), dict(PER_LAYER)
    else:
        values, units = end_to_end(result), dict(END_TO_END)
    for problem in result["problems"]:
        print(f"perfbench: {workload}: {problem}", file=sys.stderr)
    print(f"perfbench: {workload}: median pass {statistics.median(result['pass_wall_s']):.4f} "
          f"host s, {statistics.median(result['pass_s']):.4f} s scaled by host speed; "
          f"speed kernel {statistics.median(result['kernel_s']):.4f} s", file=sys.stderr)
    correct = result["failed"] == 0
    if trace and values["trace.coverage"] < MIN_COVERAGE:
        print(f"perfbench: {workload}: trace coverage "
              f"{values['trace.coverage']:.3f} < {MIN_COVERAGE}", file=sys.stderr)
        correct = False
    return {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
