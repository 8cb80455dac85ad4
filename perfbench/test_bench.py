#!/usr/bin/env python3
"""The benchmark's own tests (full workload sizes, one-second runs).

    python3 perfbench/test_bench.py

They build xedbench the way run.py does, then check the metric names
and units against BENCHMARK.json, that every workload emits each of
its metrics with a unit, that the seed reaches the generated inputs,
that each traced replay reproduces the untraced run's bytes, and that
seed 1 reproduces the digests recorded in the benchmark.
"""

import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark entry point, for its build step)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Per-layer metric prefixes each workload exercises; every other
# per-layer metric must read 0 on it (paper_dev: -1 without a paper value).
EXERCISED = {
    "mc_fig07": ("campaign.", "faultsim.", "paper_dev", "bench."),
    "mc_stress": ("campaign.", "faultsim.", "bench."),
    "detect_table2": ("campaign.", "ecc.", "paper_dev", "bench."),
    "perf_fig11": ("perfsim.", "sim_cycles_per_s", "paper_dev", "bench."),
}
# Exercised metrics that may legitimately read 0 or below. The engine
# skips the zero-fault filter where it has no vector kernel
# (XED_SIMD=scalar), so the filter then takes no time.
MAY_BE_ZERO = {"bench.trace_overhead_frac", "bench.unattributed_frac",
               "faultsim.zero_filter_ns_per_system"}
# Detection campaigns write no forensics sidecar; mc_fig07 runs without
# per-record fsync.
NOT_ON = {"detect_table2": {"campaign.forensics_serialize_s"},
          "mc_fig07": {"campaign.fsync_s", "campaign.fsyncs"}}


def xedbench(*args):
    proc = subprocess.run([run.BINARY, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        raise AssertionError("xedbench %s failed: %s" % (args, proc.stderr))
    return proc.stdout.strip().splitlines()


def run_workload(workload, seed, trace):
    work = os.path.join(run.BUILD_ROOT, "work",
                        "test-%s-%d-%d" % (workload, seed, trace))
    lines = xedbench("--workload", workload, "--seed", str(seed),
                     "--seconds", "1", "--trace", str(trace),
                     "--work-dir", work)
    return json.loads(lines[0]), json.loads(lines[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.defs = json.loads(xedbench("--list-metrics")[0])
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)
        cls.runs = {}
        for workload in cls.defs["workloads"]:
            for trace in (0, 1):
                cls.runs[(workload, trace)] = run_workload(workload, 1, trace)

    def test_metric_names_and_units_are_well_formed(self):
        for group in ("end_to_end", "per_layer"):
            for metric in self.defs[group]:
                self.assertRegex(metric["name"], NAME)
                self.assertRegex(metric["unit"], UNIT)

    def test_benchmark_json_lists_the_emitted_metrics(self):
        for group in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in self.bench[group]}
            emitted = {m["name"]: m["unit"] for m in self.defs[group]}
            self.assertEqual(declared, emitted, group)
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         self.defs["workloads"])
        self.assertEqual(self.bench["workloads"][0]["name"],
                         run.WORKLOADS[0])
        self.assertEqual(sorted(run.WORKLOADS), sorted(self.defs["workloads"]))

    def test_every_workload_emits_its_metrics_with_units(self):
        groups = {0: self.defs["end_to_end"], 1: self.defs["per_layer"]}
        for (workload, trace), (_, result) in self.runs.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed",
                                  "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                metrics = result["metrics"]
                self.assertEqual(set(metrics),
                                 {m["name"] for m in groups[trace]})
                for metric in groups[trace]:
                    entry = metrics[metric["name"]]
                    self.assertEqual(entry["unit"], metric["unit"])
                    value = entry["value"]
                    self.assertIsInstance(value, (int, float))
                    name = metric["name"]
                    exercised = trace == 0 or (
                        name.startswith(EXERCISED[workload]) and
                        name not in NOT_ON.get(workload, ()))
                    if exercised and name not in MAY_BE_ZERO:
                        self.assertGreater(value, 0, name)
                    elif not exercised:
                        self.assertEqual(
                            value, -1 if name == "paper_dev" else 0, name)

    def test_seed_reaches_the_generated_inputs(self):
        for workload in ("mc_fig07", "mc_stress", "detect_table2"):
            one = json.loads(xedbench("--print-spec", workload, "--seed",
                                      "1")[0])
            again = json.loads(xedbench("--print-spec", workload, "--seed",
                                        "1")[0])
            two = json.loads(xedbench("--print-spec", workload, "--seed",
                                      "2")[0])
            self.assertEqual(one, again)
            self.assertNotEqual(one["seed"], two["seed"])
            self.assertEqual({k: v for k, v in one.items() if k != "seed"},
                             {k: v for k, v in two.items() if k != "seed"})
        for workload in self.defs["workloads"]:
            with self.subTest(workload=workload):
                head_one = self.runs[(workload, 0)][0]
                head_again = self.runs[(workload, 1)][0]
                head_two, _ = run_workload(workload, 2, 0)
                self.assertEqual(head_one["digest"], head_again["digest"])
                self.assertNotEqual(head_one["digest"], head_two["digest"])

    def test_traced_replay_reproduces_the_untraced_bytes(self):
        for workload in self.defs["workloads"]:
            with self.subTest(workload=workload):
                head, result = self.runs[(workload, 1)]
                self.assertTrue(result["correct"])
                outputs = head["outputs"]
                self.assertTrue(outputs["run"])
                self.assertEqual(outputs["run"], outputs["replay"])

    def test_provenance_is_recorded(self):
        for (workload, _), (head, _) in self.runs.items():
            prov = head["provenance"]
            for key in ("gitDescribe", "buildType", "compiler",
                        "simdResolved", "simdDetected", "simdOverride",
                        "nproc", "threads", "seed"):
                self.assertIn(key, prov, workload)
            self.assertLessEqual(prov["threads"], max(prov["nproc"], 1))
            if workload != "perf_fig11":
                self.assertRegex(prov["specHash"], r"^[0-9a-f]{16}$")


if __name__ == "__main__":
    unittest.main()
