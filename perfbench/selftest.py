"""Self-tests of the benchmark at a tiny input.

    python3 perfbench/selftest.py

Checks that every named metric is printed with its unit, that two traced
runs with one seed give identical counters, that no item fails, that the
recorder puts back every name it wrapped, that item times are scaled by
the reference loop, and that the runner refuses to run without the
program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest

import run
import tracer

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def bench(workload: str, trace: int, seed: int = 3) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
         "--size", "tiny"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkSelfTest(unittest.TestCase):

    def check_result(self, proc, section: str) -> dict:
        result = result_of(proc)
        names = [m["name"] for m in SPEC[section]]
        self.assertEqual(sorted(result["metrics"]), sorted(names))
        for name in names:
            metric = result["metrics"][name]
            self.assertEqual(metric["unit"], UNITS[name])
            self.assertIn(f"{name} = {metric['value']} {metric['unit']}",
                          proc.stdout)
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)   # failed_frac is 0
        return result

    def test_end_to_end_metrics_printed_with_units(self):
        for workload in run.WORKLOAD_NAMES:
            with self.subTest(workload=workload):
                self.check_result(bench(workload, 0), "end_to_end")

    def test_traced_counters_repeat(self):
        for workload in run.WORKLOAD_NAMES:
            with self.subTest(workload=workload):
                first, second = (self.check_result(bench(workload, 1), "per_layer")
                                 for _ in range(2))
                counts = {n for n, u in UNITS.items() if u in ("count", "ratio")}
                self.assertEqual(
                    {n: v for n, v in first["metrics"].items() if n in counts},
                    {n: v for n, v in second["metrics"].items() if n in counts})

    def test_recorder_restores_every_name(self):
        run.import_program()
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "mmwcache" or n.startswith("mmwcache.")]
        before = [dict(vars(m)) for m in namespaces]
        pool = tracer.concurrent.futures.ProcessPoolExecutor
        rec = tracer.Recorder()
        rec.install()
        wrapped = sys.modules["mmwcache.scenario"].generate_scenario
        self.assertIsNot(wrapped, before[namespaces.index(
            sys.modules["mmwcache.scenario"])]["generate_scenario"])
        self.assertIs(sys.modules["mmwcache.experiments"].generate_scenario,
                      wrapped)
        self.assertIsNot(tracer.concurrent.futures.ProcessPoolExecutor, pool)
        rec.uninstall()
        self.assertEqual(rec.unrestored(), [])
        for namespace, saved in zip(namespaces, before):
            for attr, value in saved.items():
                self.assertIs(getattr(namespace, attr), value, attr)
        self.assertIs(tracer.concurrent.futures.ProcessPoolExecutor, pool)

    def test_pool_counts(self):
        prog = run.import_program()
        rec = tracer.Recorder()
        rec.install()
        try:
            prog.experiments.run_experiment(
                "load_vs_users", prog.config.ScenarioConfig(seed=1), 1, 2)
        finally:
            rec.uninstall()
        # one pool of one task per sweep point: 10 user counts x 3 speeds
        self.assertEqual(rec.counters["experiments.pool.starts"], 30)
        self.assertEqual(rec.counters["experiments.pool.tasks"], 30)
        self.assertGreater(rec.times["experiments.pool.startup_s"], 0.0)
        self.assertGreater(rec.times["experiments.pool.wait_s"], 0.0)

    def test_calibration_scales_by_reference(self):
        saved = run.reference
        run.reference = lambda cpus=None: 2 * run.REF_S   # half speed
        try:
            tally = run.Tally(2)
            items = [run.Item(f"i{k}", lambda: sum(range(20000)), lambda _: [])
                     for k in range(2)]
            wall = tally.run_pass(items)
        finally:
            run.reference = saved
        self.assertAlmostEqual(wall, tally.raw_walls[0] / 2)
        self.assertEqual(tally.refs, [2 * run.REF_S] * 2)

    def test_refuses_to_run_without_program(self):
        bare = run.OUT_DIR / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "region_sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
