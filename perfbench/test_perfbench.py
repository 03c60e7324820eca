"""Checks of the benchmark itself (not of pwcheck).

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the root of a pwcheck checkout; takes a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
import time
import unittest
from pathlib import Path

import run

ROOT = run.HERE.parent
GOLDEN = json.loads(run.GOLDEN_PATH.read_text())
TINY = run.Workload("tiny", "", run._moduli("verify", "text", [(3, 2)]), min_passes=1)


def runner(golden=GOLDEN, deadline_s: float = run.RUN_DEADLINE_S) -> run.Runner:
    return run.Runner(ROOT, golden, time.perf_counter() + deadline_s)


class GoldenCheck(unittest.TestCase):
    def test_every_seedable_argv_has_a_golden(self):
        for workload in run.WORKLOADS.values():
            missing = [a for a in run.all_argvs(workload)
                       if run.golden_key(a) not in GOLDEN]
            self.assertEqual(missing, [], workload.name)

    def test_seeds_change_order_and_degree(self):
        plans = [run.make_plan(run.WORKLOADS["verify-grid"], random.Random(seed))
                 for seed in (1, 2)]
        self.assertNotEqual(plans[0], plans[1])
        self.assertEqual(sorted(a[:7] for a in plans[0]),
                         sorted(a[:7] for a in plans[1]))

    def test_wrong_digest_fires(self):
        argv = ("verify", "--n", "3", "--g", "2", "--format", "text", "--d", "1")
        key = run.golden_key(argv)
        tampered = dict(GOLDEN, **{key: dict(GOLDEN[key], sha256="0" * 64)})
        good, bad = runner(), runner(tampered)
        self.assertIsNone(good.run_case(argv).error)
        self.assertEqual(bad.run_case(argv).error, "stdout digest differs from golden")
        self.assertEqual((good.failed, bad.failed), (0, 1))

    def test_timeout_counts_as_failure(self):
        # A deadline already past leaves the one-second minimum timeout.
        late = runner(deadline_s=-run.CASE_TIMEOUT_S)
        result = late.run_case(run.WORKLOADS["ksearch-boxes"].cases[1][0])
        self.assertEqual(result.error, "timeout")
        self.assertEqual(late.failed, 1)


class Percentile(unittest.TestCase):
    def test_harrell_davis(self):
        self.assertAlmostEqual(run.percentile([5.0] * 7, 77), 5.0)
        self.assertAlmostEqual(run.percentile([1.0, 2.0, 3.0], 50), 2.0)
        self.assertEqual(run.percentile([2.0, 1.0], 0), 1.0)
        # A weighted mean of every sample, so moved by each of them.
        low = run.percentile([1.0, 2.0, 3.0, 10.0], 50)
        self.assertTrue(1.0 < low < 10.0)
        self.assertLess(low, run.percentile([1.0, 2.0, 3.0, 20.0], 50))


class Tracer(unittest.TestCase):
    def test_self_check_passes(self):
        self.assertTrue(run.self_check(runner()))

    def test_self_check_catches_a_missed_binding(self):
        # Patch only the defining module, as a naive tracer would: the
        # by-value imports (closed_e in cli, variant_bracket in hookchar)
        # keep calling the unpatched function.
        script = (
            "import sys, tracer\n"
            "orig = tracer._patch\n"
            "def naive(module, qualname, wrapper):\n"
            "    if '.' in qualname:\n"
            "        return orig(module, qualname, wrapper)\n"
            "    setattr(sys.modules[module], qualname, wrapper)\n"
            "tracer._patch = naive\n"
            "sys.exit(tracer.main(sys.argv[1:]))\n")
        r = runner()
        cmd = [sys.executable, "-c", script, "count", "--", *run.SELF_CHECK_CASE]
        env = dict(r.env, PYTHONPATH=f"{ROOT / 'src'}:{run.HERE}")
        naive = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, check=True)
        counted = json.loads(naive.stderr.decode().splitlines()[-1]
                             [len(run.STATS_MARKER):])["calls"]
        profiled = r.run_case(run.SELF_CHECK_CASE, "profile").stats()["calls"]
        bad = run.count_mismatches(counted, profiled)
        self.assertIn("epoly.closed_e", bad)
        self.assertIn("epoly.variant_bracket", bad)


class BenchmarkSpec(unittest.TestCase):
    """BENCHMARK.json declares exactly the metrics and workloads run.py prints."""

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def names(self, key):
        return {m["name"] for m in self.spec[key]}

    def test_workloads(self):
        self.assertEqual({w["name"]: w["why"] for w in self.spec["workloads"]},
                         {w.name: w.why for w in run.WORKLOADS.values()})

    def run_tiny(self, trace: bool) -> dict:
        with contextlib.redirect_stdout(io.StringIO()):
            return run.run_workload(TINY, ROOT, GOLDEN, seed=1, seconds=0, trace=trace)

    def test_end_to_end_metrics(self):
        result = self.run_tiny(trace=False)
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), self.names("end_to_end"))
        self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_per_layer_metrics(self):
        result = self.run_tiny(trace=True)
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), self.names("per_layer"))
        self.assertGreater(result["metrics"]["epoly.closed_e.calls"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
