"""Self-tests of the benchmark: ``python3 -m pytest perfbench`` (or
``python3 -m unittest discover perfbench``) from the repository root."""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import ROOT, MissingBoundary, Tracer, installed, traced_pass  # noqa: E402
from workloads import (  # noqa: E402
    HibenchEtl,
    ServingLlap,
    Tpch22,
    canonical_rows,
    mismatches,
    outputs_differ,
    same_rows,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class SelfTimeTest(unittest.TestCase):
    def test_nested_call_tree(self):
        # root [0,10] > a [1,6] > b [2,4];  root > a [7,8]
        clock = FakeClock()
        tracer = Tracer(clock)
        for at, action in [(0, ROOT), (1, "a"), (2, "b"), (4, None), (6, None),
                           (7, "a"), (8, None), (10, None)]:
            clock.now = at
            tracer.enter(action) if action else tracer.exit()
        self.assertEqual(dict(tracer.self_s), {ROOT: 4.0, "a": 4.0, "b": 2.0})
        self.assertAlmostEqual(tracer.coverage(), 0.6)

    def test_generator_slices_count_only_while_running(self):
        clock = FakeClock()
        tracer = Tracer(clock)

        def worker():
            clock.now += 1.0  # first slice
            got = yield "first"
            clock.now += 2.0  # second slice
            return got * 2

        traced = tracing._wrap(worker, "gen", {"gen.calls": tracing._calls}, tracer)
        tracer.enter(ROOT)
        gen = traced()
        self.assertEqual(next(gen), "first")
        clock.now += 5.0  # the simulator runs something else
        with self.assertRaises(StopIteration) as stop:
            gen.send(21)
        tracer.exit()
        self.assertEqual(stop.exception.value, 42)
        self.assertEqual(tracer.self_s["gen"], 3.0)
        self.assertEqual(tracer.self_s[ROOT], 5.0)
        self.assertEqual(tracer.counts["gen.calls"], 1)

    def test_generator_receives_thrown_exceptions(self):
        tracer = Tracer()

        def worker():
            try:
                yield 1
            except KeyError:
                yield "handled"

        gen = tracing._wrap(worker, "gen", {}, tracer)()
        tracer.enter(ROOT)
        next(gen)
        self.assertEqual(gen.throw(KeyError("x")), "handled")
        tracer.exit()

    def test_calls_outside_a_pass_are_not_traced(self):
        tracer = Tracer()
        traced = tracing._wrap(lambda: 7, "layer", {"n": tracing._calls}, tracer)
        self.assertEqual(traced(), 7)
        self.assertEqual(dict(tracer.self_s), {})
        self.assertEqual(dict(tracer.counts), {})


class InstallTest(unittest.TestCase):
    def test_by_name_importers_are_patched_and_restored(self):
        import repro.core.driver as driver
        import repro.sql.parser as parser

        original = parser.parse_script
        with installed(Tracer()):
            for module in (parser, driver):
                self.assertIsNot(module.parse_script, original)
                self.assertIs(module.parse_script.__wrapped__, original)
        self.assertIs(parser.parse_script, original)
        self.assertIs(driver.parse_script, original)

    def test_missing_boundary_fails(self):
        bogus = (("sql.parse", "repro.sql.parser:no_such_function", {}),)
        with self.assertRaises(MissingBoundary):
            with installed(Tracer(), bogus):
                pass

    def test_every_boundary_resolves(self):
        with installed(Tracer()):
            pass


class OracleGateTest(unittest.TestCase):
    def test_corrupted_row_is_rejected(self):
        workload = Tpch22(seed=0, sf=0.1, lineitem_sample=300)
        state = workload.setup()
        expected = workload.oracle(state)
        run_ = workload.run_pass(state)
        result = run_.outcomes["q01"][-1]
        self.assertTrue(result.rows)
        self.assertEqual(mismatches(workload.check(state, run_).rows, expected), [])
        first = result.rows[0]
        result.rows[0] = (first[0] + "x",) + tuple(first[1:])
        self.assertEqual(mismatches(workload.check(state, run_).rows, expected),
                         ["q01"])

    def test_canonical_form(self):
        def same(got, want, ordered=True):
            return same_rows(canonical_rows((got, ordered)),
                             canonical_rows((want, ordered)))

        # accumulation noise in the last ulps is absorbed...
        self.assertEqual(canonical_rows(([(0.1 + 0.2, "a")], True)).digest,
                         canonical_rows(([(0.3, "a")], True)).digest)
        # ...also across a 9-digit rounding boundary, where digests differ
        self.assertTrue(same([(89170189.25000003,)], [(89170189.25,)]))
        # real differences are not
        self.assertFalse(same([(1.0000001,)], [(1.0,)]))
        self.assertFalse(same([(1.0, "a")], [(1.0, "b")]))
        self.assertFalse(same([(1,), (2,)], [(2,), (1,)]))
        self.assertTrue(same([(1,), (2,)], [(2,), (1,)], ordered=False))
        self.assertFalse(same([(1,)], [(1,), (1,)], ordered=False))

    def test_outputs_differ(self):
        self.assertEqual(outputs_differ({"a": 1.0, "b": 2}, {"a": 1.0, "b": 2}), [])
        self.assertEqual(outputs_differ({"a": 1.0, "b": None}, {"a": 1.1, "b": 0.0}),
                         ["a", "b"])


class TinyWorkloadTest(unittest.TestCase):
    """Every workload runs, traced, at a tiny size and passes its oracle."""

    def check_workload(self, workload):
        state = workload.setup()
        tracer = Tracer()
        with traced_pass(tracer):
            run_ = workload.run_pass(state)
        checked = workload.check(state, run_)
        self.assertEqual(checked.failed, 0)
        self.assertTrue(checked.rows)
        self.assertEqual(mismatches(checked.rows, workload.oracle(state)), [])
        self.assertGreater(tracer.coverage(), 0.8)
        return tracer

    def test_tpch22(self):
        tracer = self.check_workload(Tpch22(seed=1, sf=0.1, lineitem_sample=300))
        self.assertGreater(tracer.self_s["exec.map"], 0)

    def test_hibench_etl(self):
        tracer = self.check_workload(HibenchEtl(seed=1, uservisits_sample=800))
        self.assertEqual(tracer.counts["stats.tables_collected"], 4)

    def test_serving_llap(self):
        tracer = self.check_workload(
            ServingLlap(seed=1, arrivals=60, workers=6, uservisits_sample=400))
        self.assertEqual(tracer.counts["sched.submitted"], 60)


class HostSpeedTest(unittest.TestCase):
    def test_scale_factors_use_the_kernels_either_side(self):
        reference = hostspeed.REFERENCE_S
        factors = hostspeed.scale_factors([reference, 3 * reference, reference / 2])
        self.assertEqual(len(factors), 2)
        power = hostspeed.SENSITIVITY
        self.assertAlmostEqual(factors[0], 0.5 ** power)  # host at half speed
        self.assertAlmostEqual(factors[1], (4 / 7) ** power)

    def test_kernel_runs_without_the_collector(self):
        # a collection would scan the program's heap, so the kernel's
        # time would grow with the heap of the program under test
        collections = []

        def callback(phase, info):
            collections.append(phase)

        gc.callbacks.append(callback)
        try:
            self.assertGreater(hostspeed.measure_kernel(), 0.0)
        finally:
            gc.callbacks.remove(callback)
        self.assertEqual(collections, [])
        self.assertTrue(gc.isenabled())


class TypicalPassTest(unittest.TestCase):
    def test_one_disturbed_statement_does_not_move_the_pass(self):
        result = {"pass_s": [3.1, 3.1, 7.1],
                  "statement_s": [[1.0, 2.0], [1.0, 2.0], [5.0, 2.0]]}
        self.assertAlmostEqual(run.typical_pass_s(result), 3.1)

    def test_passes_without_statements_take_the_median_pass(self):
        result = {"pass_s": [5.0, 9.0, 6.0], "statement_s": [[], [], []]}
        self.assertEqual(run.typical_pass_s(result), 6.0)


class BenchmarkSpecTest(unittest.TestCase):
    def test_benchmark_json_names_the_reported_metrics(self):
        with open(HERE.parent / "BENCHMARK.json") as handle:
            spec = json.load(handle)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual(list(workloads.WORKLOADS), list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual(spec["run_seconds"], run.RUN_SECONDS)

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copytree(HERE, Path(bare) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            completed = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "tpch22",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(completed.returncode, 0)
        self.assertEqual(completed.stdout, "")


if __name__ == "__main__":
    unittest.main()
