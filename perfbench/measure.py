"""One measured run of one workload, in a fresh interpreter.

``run.py`` starts this script once per run, so peak RSS and first-pass
warm-up (kernel codegen, plan compilation) belong to that run alone.
It prints one JSON object as its last line:

* ``setup_s`` — seconds of each warehouse set-up (generation, load, DDL)
  scaled by the host's speed (``hostspeed.py``), and ``setup_wall_s``
  the same in host seconds;
* ``pass_s`` / ``statement_s`` — seconds of each timed pass and of each
  statement in it, scaled the same way, and ``pass_wall_s`` the
  passes in host seconds; ``latencies_s`` all statements' seconds where
  the workload reports statement latency;
* ``kernel_s`` — host seconds of the speed kernel, run before each set-up
  and each pass and after the last of each;
* ``attempted`` / ``failed`` — operations run, and those that raised,
  disagreed with the ``local``-engine oracle, or (untraced, at
  ``--seed 0``) whose simulated outputs differ from ``reference.json``;
* ``outputs`` — the simulated outputs of the first passes, per pass.
  They legitimately differ from pass to pass: every pass writes files,
  which advances the warehouse's replica-placement generator and so
  moves later tasks' locality.  In a fresh interpreter pass *k* is
  deterministic, so the reference holds one entry per pass index;
* ``peak_rss_mb`` — the high-water mark after the first three passes
  (set-ups included), before the oracle runs;
* ``layers`` / ``counts`` — traced runs only: self seconds (scaled by
  the host's speed) and counters per traced pass, and
  ``trace.overhead``.  A traced run alternates untraced and traced
  passes (three of each at least).

Run directly: ``python3 perfbench/measure.py --workload tpch22 --seed 0
--seconds 10 [--setups 5] [--traced]``; ``--write-reference`` (seed 0)
stores the run's simulated outputs in ``reference.json`` after the
oracle check passes.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from hostspeed import measure_kernel, scale_factors  # noqa: E402
from repro.obs import get_metrics  # noqa: E402
from tracing import ROOT, Tracer, traced_pass  # noqa: E402
from workloads import WORKLOADS, mismatches, outputs_differ  # noqa: E402

REFERENCE = HERE / "reference.json"
MIN_PASSES = 3  # a median needs at least three passes


def load_reference(workload: str):
    with open(REFERENCE) as handle:
        return json.load(handle).get(workload)


def peak_rss_now() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def hit_ratio(caches_per_pass, kind: str) -> float:
    """Hits over lookups of one cache kind of ``Session.caches()``;
    ``columnar`` holds one counter dict per node."""
    hits = misses = 0
    for caches in caches_per_pass:
        value = caches.get(kind) or {}
        for counters in (value.values() if kind == "columnar" else [value]):
            hits += counters.get("hits", 0)
            misses += counters.get("misses", 0)
    return hits / (hits + misses) if hits + misses else 0.0


def measure(workload_name: str, seed: int, seconds: float, setups: int,
            traced: bool, write_reference: bool = False) -> dict:
    workload = WORKLOADS[workload_name](seed)
    setup_wall_s = []
    setup_kernel_s = [measure_kernel()]
    state = None
    for _ in range(setups):
        state = None  # drop the previous warehouse before building the next
        began = time.perf_counter()
        state = workload.setup()
        setup_wall_s.append(time.perf_counter() - began)
        setup_kernel_s.append(measure_kernel())
    setup_s = [wall * factor for wall, factor
               in zip(setup_wall_s, scale_factors(setup_kernel_s))]

    tracer = Tracer() if traced else None
    registry = get_metrics()
    shuffle_key = f"{workload.engine}.shuffle.bytes"
    shuffle_bytes = 0.0
    passes, checks, kernel_s = [], [], []
    traced_deltas = []  # (pass index, self seconds per layer) per traced pass
    # a traced run alternates untraced and traced passes, so host drift
    # cancels out of the ratio of their medians (trace.overhead)
    needed = MIN_PASSES * (2 if traced else 1)
    began = time.perf_counter()
    while len(passes) < needed or time.perf_counter() - began < seconds:
        # start every pass from a collected heap, so one pass's garbage
        # is not collected on the next pass's clock
        gc.collect()
        kernel_s.append(measure_kernel())
        tracing = traced and len(passes) % 2 == 1
        # the two passes of a traced pair replay the same inputs
        index = len(passes) // 2 if traced else len(passes)
        shuffle_before = registry.snapshot().get(shuffle_key, 0.0)
        self_before = dict(tracer.self_s) if tracing else {}
        with traced_pass(tracer) if tracing else nullcontext():
            run = workload.run_pass(state, index)
        if tracing:
            shuffle_bytes += registry.snapshot().get(shuffle_key, 0.0) - shuffle_before
            traced_deltas.append((len(passes), {
                layer: spent - self_before.get(layer, 0.0)
                for layer, spent in tracer.self_s.items()}))
        passes.append(run)
        checks.append(workload.check(state, run))
        run.outcomes = {}  # checked; free the rows before the next pass
        if len(passes) == MIN_PASSES:
            # RSS creeps pass over pass, so a peak taken after however
            # many passes fit in --seconds would grow with host speed
            peak_rss_mb = peak_rss_now()
    kernel_s.append(measure_kernel())
    factors = scale_factors(kernel_s)
    pass_s = [run.wall_s * factor for run, factor in zip(passes, factors)]
    statement_s = [[lat * factor for lat in run.latencies]
                   for run, factor in zip(passes, factors)]

    expected = workload.oracle(state)
    # the reference is kept per pass of an untraced run; a traced run's
    # pairs replay inputs in another order, and its rows are still checked
    reference = None
    check_reference = seed == 0 and not traced and not write_reference
    if check_reference:
        reference = load_reference(workload_name)
    failed = 0
    problems = []
    for index, checked in enumerate(checks):
        failed += checked.failed
        wrong = mismatches(checked.rows, expected)
        moved = []
        if reference is not None and index < len(reference):
            moved = outputs_differ(checked.outputs, reference[index])
        failed += len(wrong) + len(moved)
        if wrong:
            problems.append(f"pass {index}: rows differ from the oracle: {wrong[:5]}")
        if moved:
            problems.append(f"pass {index}: simulated outputs moved: {moved[:5]}")
    if check_reference and reference is None:
        problems.append(f"no reference outputs for {workload_name}")
        failed += 1

    result = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "pass_s": pass_s,
        "pass_wall_s": [run.wall_s for run in passes],
        "kernel_s": setup_kernel_s + kernel_s,
        "operations": [run.operations for run in passes],
        "statement_s": statement_s,
        "latencies_s": ([lat for pass_statements in statement_s
                         for lat in pass_statements]
                        if getattr(workload, "statement_latencies", False) else []),
        "attempted": sum(run.operations for run in passes),
        "failed": failed,
        "problems": problems,
        "outputs": [checked.outputs for checked in checks[:MIN_PASSES]],
        "peak_rss_mb": peak_rss_mb,
    }
    if traced:
        traced_runs = passes[1::2]
        count = len(traced_runs)
        caches = [run.caches for run in traced_runs]
        layers = {}
        for index, deltas in traced_deltas:
            for layer, spent in deltas.items():
                if layer != ROOT:
                    layers[layer] = layers.get(layer, 0.0) + spent * factors[index]
        result["layers"] = {layer: total / count for layer, total in layers.items()}
        counts = {name: value / count for name, value in tracer.counts.items()}
        counts["shuffle.bytes"] = shuffle_bytes / count
        counts["driver.result_cache_hit_ratio"] = hit_ratio(caches, "result")
        counts["storage.llap_cache_hit_ratio"] = hit_ratio(caches, "columnar")
        counts["trace.coverage"] = tracer.coverage()
        counts["trace.overhead"] = (
            statistics.median(pass_s[1::2]) / statistics.median(pass_s[0::2]) - 1.0
        )
        result["counts"] = counts
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setups", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's simulated outputs as the "
                             "reference (seed 0, after the oracle passes)")
    args = parser.parse_args(argv)
    if args.write_reference and (args.seed != 0 or args.traced):
        parser.error("--write-reference needs --seed 0 and no --traced")
    result = measure(args.workload, args.seed, args.seconds,
                     max(1, args.setups), args.traced, args.write_reference)
    if args.write_reference:
        if result["failed"]:
            print(f"not writing a reference: {result['problems']}", file=sys.stderr)
            return 1
        with open(REFERENCE) as handle:
            stored = json.load(handle)
        stored[args.workload] = result["outputs"]
        with open(REFERENCE, "w") as handle:
            json.dump(stored, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
