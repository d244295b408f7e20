#!/usr/bin/env python3
"""Self-checks of the benchmark itself.

    python3 perfbench/test_perfbench.py

- Two traced runs of olap_mix and of adhoc_plan with the same seed report
  identical counts (buffer gets, page fetches, RSI calls, rows, batches,
  optimizations, plans generated ...): later claims may cite them as counts.
- Every workload passes every correctness check on the holdout seed.
- Without the engine sources next to it, the benchmark exits non-zero and
  prints no result.

Runs are short (2 s of statements each); the whole file takes a few minutes,
most of it in the first build.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

# Metrics derived from counters only; everything else is a time.
COUNT_UNITS = {"count", "bytes"}
COUNT_RATIOS = {"rss.buffer_hit_ratio", "exec.sel_density",
                "session.cache_hit_ratio"}


def traced(workload, seed):
    code, out = run.run_one(workload, seed, 2, 1)
    assert out is not None and code == 0, (workload, code)
    return out[1]["metrics"]


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench build failed")

    def test_counts_repeat_for_a_seed(self):
        for workload in ("olap_mix", "adhoc_plan"):
            first = traced(workload, run.DEFAULT_SEED)
            second = traced(workload, run.DEFAULT_SEED)
            counts = [n for n, m in first.items()
                      if m["unit"] in COUNT_UNITS or n in COUNT_RATIOS]
            self.assertGreater(len(counts), 10)
            for name in counts:
                self.assertEqual(first[name]["value"], second[name]["value"],
                                 "%s %s" % (workload, name))
            nonzero = [n for n in counts if first[n]["value"] != 0]
            self.assertTrue(nonzero, workload)

    def test_holdout_seed_is_correct(self):
        for workload in run.WORKLOADS:
            code, out = run.run_one(workload, run.HOLDOUT_SEED, 2, 0)
            self.assertIsNotNone(out, workload)
            self.assertEqual(code, 0, workload)
            result = out[1]
            self.assertTrue(result["correct"], workload)
            self.assertEqual(result["failed"], 0, workload)
            self.assertGreater(result["attempted"], 0, workload)

    def test_fails_without_engine_sources(self):
        tmp = tempfile.mkdtemp(dir=run.BUILD)
        try:
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "olap_mix",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            for line in proc.stdout.splitlines():
                self.assertFalse(line.startswith("{"), line)
        finally:
            shutil.rmtree(tmp)


if __name__ == "__main__":
    unittest.main()
