"""Self-tests of the repository benchmark.

    python3 -m unittest discover -s perfbench/tests -v

Run from the repository root. Builds the perfbench binary through run.py's build step
and exercises it on shrunken (--smoke) inputs: generator purity, the metric
names it emits against BENCHMARK.json, the correctness check against a
tampered digest and a truncated archive container, and compare.py's
verdicts.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import compare  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class DriverTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        bdir = run.build_dir()
        cls.exe = run.build(bdir)
        cls.work = tempfile.mkdtemp(prefix="selftest-", dir=bdir)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.workloads = [w["name"] for w in cls.spec["workloads"]]

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def bench(self, workload, *extra, seed=7, trace=0):
        cmd = [self.exe, "--workload", workload, "--seed", str(seed), "--seconds", "0.1",
               "--trace", str(trace), "--work-dir", self.work, "--smoke", *extra]
        return subprocess.run(cmd, capture_output=True, text=True, timeout=170)

    def result(self, proc):
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_generators_are_pure_in_the_seed(self):
        for w in self.workloads:
            a = self.bench(w, "--dump-specs", seed=7)
            b = self.bench(w, "--dump-specs", seed=7)
            c = self.bench(w, "--dump-specs", seed=8)
            self.assertEqual(a.returncode, 0, a.stderr)
            self.assertEqual(a.stdout, b.stdout, w)
            self.assertNotEqual(a.stdout, c.stdout, w)

    def test_emitted_metrics_are_declared(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in self.spec[key]}
            for w in self.workloads:
                proc = self.bench(w, trace=trace)
                self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                res = self.result(proc)
                self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                for name, m in res["metrics"].items():
                    self.assertRegex(name, NAME)
                    self.assertIn(name, declared, f"{w}: undeclared metric {name}")
                    self.assertEqual(m["unit"], declared[name], name)
                self.assertEqual(set(res["metrics"]), set(declared), w)

    def check_rejected(self, workload, tamper):
        proc = self.bench(workload, "--tamper", tamper)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        res = self.result(proc)
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)
        self.assertIn("failed_frac", proc.stdout)
        frac = float(re.search(r"failed_frac\s+(\S+)", proc.stdout).group(1))
        self.assertAlmostEqual(frac, res["failed"] / res["attempted"], places=5)
        self.assertGreater(frac, 0.0)

    def test_tampered_batch_digest_is_rejected(self):
        self.check_rejected("la-batch", "digest")

    def test_tampered_forecast_digest_is_rejected(self):
        self.check_rejected("la-forecast", "digest")

    def test_truncated_archive_container_is_rejected(self):
        self.check_rejected("la-batch", "truncate")


class CompareTest(unittest.TestCase):
    def test_verdicts(self):
        base = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
        faster = [v * 0.8 for v in base]
        slower = [v * 1.3 for v in base]
        noisy = [0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0]
        self.assertEqual(compare.verdict(base, faster, "lower", 0.1)[0], "improved")
        self.assertEqual(compare.verdict(base, slower, "lower", 0.1)[0], "worse")
        self.assertEqual(compare.verdict(base, base, "lower", 0.1)[0], "within bound")
        self.assertEqual(compare.verdict(noisy, noisy, "lower", 0.1)[0], "unresolved")
        self.assertEqual(compare.verdict(base, slower, "higher", 0.1)[0], "improved")
        verdict, won, _ = compare.verdict(base, faster, "lower", 0.1)
        self.assertEqual(won, 1.0)


if __name__ == "__main__":
    unittest.main()
