#!/usr/bin/env python3
"""The benchmark's own tests: its outputs check is not vacuous, its metric
names match BENCHMARK.json, count_diff.py reports moved counts, and it
refuses to produce a result without the simulator sources.

    python3 simbench/test_simbench.py

Builds through run.py (into $CARGO_TARGET_DIR/simbench, default
.bench_build/simbench) and takes about 40 s on four cores once built.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
DIFF = os.path.join(HERE, "count_diff.py")
# Scratch space for the tests, beside the benchmark's build.
SCRATCH = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "simbench-tests")


def bench(workload, trace="0", perturb=None, seed=42):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", trace]
    if perturb:
        cmd += ["--perturb", perturb]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


class OutputsCheck(unittest.TestCase):
    def test_clean_run_is_correct_and_reports_the_declared_metrics(self):
        _, res = bench("fig05_fast")
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertEqual(res["attempted"], 24)
        want = {m["name"]: m["unit"] for m in declared()["end_to_end"]}
        self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()}, want)

    def test_wrong_golden_speedup_fails_the_run(self):
        out, res = bench("fig05_fast", perturb="speedup")
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)
        self.assertIn("C5/hydrogen: speedup", out)

    def test_wrong_reference_counter_fails_the_run(self):
        out, res = bench("fig05_ddr", perturb="counter")
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)
        self.assertIn("differs from the reference pass in engine_steps", out)

    def test_truncated_checkpoint_fails_the_restore(self):
        out, res = bench("bignode_ckpt", perturb="checkpoint", seed=7)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)
        self.assertIn("C1/hydrogen+restore: run failed", out)

    def test_traced_run_reports_the_declared_layers_and_counts(self):
        out, res = bench("bignode_ckpt", trace="1")
        self.assertTrue(res["correct"])
        want = {m["name"]: m["unit"] for m in declared()["per_layer"]}
        self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()}, want)
        self.assertIn("replay fidelity", out)
        self.assertIn("simbench-counts ", out)


class CountDiff(unittest.TestCase):
    def diff(self, before, after):
        os.makedirs(SCRATCH, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as d:
            paths = []
            for i, runs in enumerate((before, after)):
                paths.append(os.path.join(d, f"{i}.txt"))
                with open(paths[-1], "w", encoding="utf-8") as f:
                    for wl, counts in runs.items():
                        f.write("noise line\nsimbench-counts " +
                                json.dumps({"workload": wl, "seed": 42, "counts": counts}) + "\n")
            proc = subprocess.run([sys.executable, DIFF] + paths, capture_output=True, text=True)
            return proc.returncode, proc.stdout

    def test_identical_counts_exit_zero(self):
        runs = {"fig05_fast": {"sim.engine_steps": 10.0, "cache.l1.hit_rate": 0.25}}
        self.assertEqual(self.diff(runs, runs)[0], 0)

    def test_moved_count_is_listed_per_workload(self):
        a = {"fig05_fast": {"sim.engine_steps": 10.0}, "fig05_ddr": {"sim.engine_steps": 5.0}}
        b = {"fig05_fast": {"sim.engine_steps": 11.0}, "fig05_ddr": {"sim.engine_steps": 5.0}}
        code, out = self.diff(a, b)
        self.assertEqual(code, 1)
        self.assertIn("fig05_fast (seed 42): 1 of 1 counts moved", out)
        self.assertIn("fig05_ddr (seed 42): 0 of 1 counts moved", out)
        self.assertIn("sim.engine_steps", out)

    def test_unpaired_workload_is_an_error(self):
        code, _ = self.diff({"fig05_fast": {"x": 1.0}}, {"fig05_ddr": {"x": 1.0}})
        self.assertEqual(code, 2)


class Packaging(unittest.TestCase):
    def test_without_sources_it_exits_nonzero_and_prints_no_result(self):
        os.makedirs(SCRATCH, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as d:
            shutil.copytree(HERE, os.path.join(d, "simbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(d, ".bench_build"))
            proc = subprocess.run([sys.executable, "simbench/run.py", "--workload", "fig05_fast",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=d, env=env, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
