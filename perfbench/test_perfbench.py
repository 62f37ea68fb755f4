#!/usr/bin/env python3
"""Self-tests of the benchmark, at the short (`--quick`) lengths.

    python3 perfbench/test_perfbench.py        # from the repository root

Checks that BENCHMARK.json declares exactly the metric catalogue;
that every workload, untraced and traced, emits every declared metric with
its unit and passes its checks; that a deliberately wrong pin is counted in
`failed`; and the binary's own unit tests (`cargo test`).
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import catalogue  # noqa: E402
import run  # noqa: E402  (the benchmark's entry point, for its build step)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace), "--quick",
           *extra]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


class Benchmark(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        assert run.build(), "benchmark build failed"

    def test_inputs_come_from_the_seed(self):
        for w in catalogue.WORKLOADS:
            seeds = run.input_seeds(w, 3, 0)
            self.assertEqual(seeds, run.input_seeds(w, 3, 0))
            self.assertEqual(seeds[0], 3)
            self.assertEqual(len(set(seeds)), run.SEEDS_PER_ROUND[w])
            self.assertNotEqual(seeds, run.input_seeds(w, 4, 0))
            self.assertEqual(run.input_seeds(w, 3, 1), seeds[:run.TRACED_SEEDS])

    def test_catalogue_matches_benchmark_json(self):
        for key, cat in (("end_to_end", catalogue.END_TO_END), ("per_layer", catalogue.PER_LAYER)):
            declared = [(m["name"], m["unit"], m["better"]) for m in SPEC[key]]
            built = [(m["name"], m["unit"], m["better"]) for m in cat]
            self.assertEqual(declared, built, key)
        self.assertEqual([w["name"] for w in SPEC["workloads"]], catalogue.WORKLOADS)

    def test_every_metric_emitted_with_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for w in catalogue.WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    res = run_bench(w, trace)
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"], res)
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, want)
                    for k, v in res["metrics"].items():
                        self.assertIsInstance(v["value"], (int, float), k)
                    if trace == 0:
                        for k, v in res["metrics"].items():
                            self.assertGreater(v["value"], 0, k)

    def test_wrong_pin_is_counted(self):
        res = run_bench("graph-opt-1020", 0, "--wrong-pin")
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)

    def test_unit_tests(self):
        env = dict(os.environ, CARGO_TARGET_DIR=run.target_dir())
        done = subprocess.run(
            ["cargo", "test", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(HERE, "Cargo.toml")],
            capture_output=True, text=True, cwd=ROOT, env=env)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)


if __name__ == "__main__":
    unittest.main()
