"""Tests of the benchmark itself: summary statistics, failure counting, and
the shape of the result line and of the span trace.

    python3 -m unittest discover -s perfbench/tests

The last two test classes build perfbench (into .bench_build/) on first use.
"""

import copy
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
PERFBENCH = HERE.parent
ROOT = PERFBENCH.parent
sys.path.insert(0, str(PERFBENCH))
import run  # noqa: E402
import summary  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def raw_run(trace=0, failed=0):
    """A runner output as src/main.cpp writes it."""
    loop = {"attempted": 5, "failed": failed,
            "solve_s": [2.0, 1.0, 3.0, 2.5, 1.5][:5 - failed],
            "errors": ["n_pairs 1 != reference 2"] * failed}
    empty = {"attempted": 0, "failed": 0, "solve_s": [], "errors": []}
    return {
        "workload": "paper_lmax10", "seed": 1, "trace": trace,
        "host": {"nproc": 4}, "params": {},
        "untraced": loop,
        "traced": copy.deepcopy(loop) if trace else empty,
        "setup_s": [0.3, 0.1, 0.2],
        "read_s": [0.1], "read_bytes": 1e6,
        "flops_per_solve": 4e9,
        "zeta_rel_err": [1e-6, 3e-6, 2e-6],
        "solve_rss_mb": [100.0, 90.0, 110.0],
        "process_peak_rss_mb": 120.0, "wall_s": 12.0,
        "layers": {"tree.index_build_s": [0.4, 0.2, 0.3],
                   "kernel.pairs": [10.0, 10.0, 10.0]},
    }


class SummaryStatistics(unittest.TestCase):
    def test_median(self):
        self.assertEqual(summary.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(summary.median([4.0, 1.0, 2.0, 3.0]), 2.5)
        self.assertEqual(summary.median([]), 0.0)

    def test_quartile_spread(self):
        values = [float(v) for v in range(1, 11)]
        # statistics.quantiles(n=4) on 1..10: Q1 2.75, median 5.5, Q3 8.25.
        self.assertAlmostEqual(summary.quartile_spread(values), 5.5 / 5.5)
        self.assertEqual(summary.quartile_spread([7.0] * 10), 0.0)
        self.assertEqual(summary.quartile_spread([1.0]), 0.0)

    def test_end_to_end_values(self):
        m = summary.summarize(raw_run(), SPEC)["metrics"]
        self.assertEqual(m["solve_s"]["value"], 2.0)
        self.assertAlmostEqual(m["sustained_gflops"]["value"], 2.0)
        self.assertEqual(m["setup_s"]["value"], 0.2)
        self.assertEqual(m["peak_rss_mb"]["value"], 100.0)

    def test_per_layer_values(self):
        m = summary.summarize(raw_run(trace=1), SPEC)["metrics"]
        self.assertEqual(m["tree.index_build_s"]["value"], 0.3)
        self.assertEqual(m["zeta_rel_err"]["value"], 2e-6)
        self.assertEqual(m["solves_failed_frac"]["value"], 0.0)

    def test_unexercised_layers_report_zero(self):
        m = summary.summarize(raw_run(trace=1), SPEC)["metrics"]
        self.assertEqual(m["fft.kernel_conv_s"]["value"], 0.0)
        self.assertEqual(m["dist.halo_bytes"]["value"], 0.0)


class FailureCounting(unittest.TestCase):
    def test_clean_run_is_correct(self):
        r = summary.summarize(raw_run(), SPEC)
        self.assertEqual((r["correct"], r["attempted"], r["failed"]),
                         (True, 5, 0))

    def test_reference_mismatch_counts_as_failure(self):
        r = summary.summarize(raw_run(failed=2), SPEC)
        self.assertEqual((r["correct"], r["attempted"], r["failed"]),
                         (False, 5, 2))

    def test_traced_run_counts_both_loops(self):
        r = summary.summarize(raw_run(trace=1, failed=1), SPEC)
        self.assertEqual((r["attempted"], r["failed"]), (10, 2))
        self.assertEqual(r["metrics"]["solves_failed_frac"]["value"], 0.2)

    def test_no_passing_solve_is_not_correct(self):
        raw = raw_run()
        raw["untraced"]["solve_s"] = []
        self.assertFalse(summary.summarize(raw, SPEC)["correct"])


class ResultSchema(unittest.TestCase):
    def test_untraced_has_every_end_to_end_metric(self):
        r = summary.summarize(raw_run(), SPEC)
        self.assertEqual(summary.validate_result(r, SPEC, trace=False), [])
        self.assertEqual(list(r), list(summary.RESULT_KEYS))
        json.loads(json.dumps(r))

    def test_traced_has_every_per_layer_metric(self):
        r = summary.summarize(raw_run(trace=1), SPEC)
        self.assertEqual(summary.validate_result(r, SPEC, trace=True), [])
        self.assertEqual(set(r["metrics"]), {m["name"] for m in SPEC["per_layer"]})

    def test_validator_rejects_bad_results(self):
        r = summary.summarize(raw_run(), SPEC)
        missing = copy.deepcopy(r)
        del missing["metrics"]["solve_s"]
        self.assertTrue(summary.validate_result(missing, SPEC, trace=False))
        unit = copy.deepcopy(r)
        unit["metrics"]["solve_s"]["unit"] = "ms"
        self.assertTrue(summary.validate_result(unit, SPEC, trace=False))
        count = copy.deepcopy(r)
        count["attempted"] = 0
        self.assertTrue(summary.validate_result(count, SPEC, trace=False))
        self.assertTrue(summary.validate_result(r, SPEC, trace=True))


class TraceSchema(unittest.TestCase):
    GOOD = {"spans": [
        {"id": 0, "parent": -1, "solve": 0, "name": "solve",
         "start_s": 1.0, "end_s": 2.0},
        {"id": 1, "parent": 0, "solve": 0, "name": "core.Engine::build_index",
         "start_s": 1.0, "end_s": 1.25},
        {"id": 2, "parent": 0, "solve": 0, "name": "core.Staged::run_indexed",
         "start_s": 1.25, "end_s": 1.75},
    ]}

    def test_good_trace(self):
        self.assertEqual(summary.validate_trace(self.GOOD), [])
        self.assertAlmostEqual(summary.self_time(self.GOOD, "solve"), 0.25)

    def test_bad_traces(self):
        self.assertTrue(summary.validate_trace({"spans": []}))
        outside = copy.deepcopy(self.GOOD)
        outside["spans"][2]["end_s"] = 2.5
        self.assertTrue(summary.validate_trace(outside))
        orphan = copy.deepcopy(self.GOOD)
        orphan["spans"][1]["parent"] = 5
        self.assertTrue(summary.validate_trace(orphan))
        keys = copy.deepcopy(self.GOOD)
        del keys["spans"][0]["solve"]
        self.assertTrue(summary.validate_trace(keys))


class HarnessSelfTest(unittest.TestCase):
    """The C++ closed loop and tracer (src/selftest.cpp)."""

    def test_selftest_binary(self):
        run.build(targets=("perfbench_selftest",))
        trace = run.BUILD / "selftest_trace.json"
        p = subprocess.run([str(run.BUILD_DIR / "perfbench_selftest"),
                            str(trace)], capture_output=True, text=True)
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        self.assertIn("ok: reference mismatch", p.stdout)
        self.assertEqual(summary.validate_trace(json.loads(trace.read_text())), [])


class WithoutTheProgram(unittest.TestCase):
    """Only BENCHMARK.json and perfbench/: the run must fail, printing no result."""

    def test_fails_without_sources(self):
        tmp = run.BUILD / "standalone"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(PERFBENCH, tmp / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "fft_mesh",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
