#!/usr/bin/env python3
"""Self-test of the pipeline benchmark at tiny sizes.

Run from anywhere:  python3 perfbench/tests/test_pipeline_bench.py

Builds the benchmark through perfbench/run.py (first run compiles the
library), then for every workload checks that each end-to-end and per-layer
metric is printed with its unit, that the traced run writes a Perfetto-
loadable span file, and that a corrupted output raises failed_frac.
"""
import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
WORKLOADS = ["collect", "defend", "attack"]
SEED = 7

# Every metric the benchmark defines, by layer; BENCHMARK.json must list
# each one (none is dropped).
NAMED_END_TO_END = ["setup_s", "run_s", "cpu_s", "peak_rss_mb"]
NAMED_PER_LAYER = [
    "sim.events_per_cell", "sim.events_per_cpu_s", "sim.cancelled_frac", "sim.heap_high_water",
    "alloc.per_event", "alloc.per_cell", "mem.pool_hit_ratio",
    "workload.page_load_ms.p50", "workload.page_load_ms.p95", "workload.page_load_cpu_ms.p50",
    "tls.records_per_cell", "tcp.segments_per_cell", "tcp.retransmit_frac",
    "qdisc.packets_per_cell", "qdisc.drop_frac", "qdisc.wait_us.p50", "qdisc.wait_us.p95",
    "nic.packets_per_cell", "wire.packets_per_cell", "wire.bytes_per_cell",
    "fault.events_per_cell",
    "fault.invariants.calls_per_cell", "fault.invariants.ns_per_call",
    "fault.invariants.cpu_share",
    "core.guard.clamps_per_cell", "defenses.mount.dummy_suppressed_per_cell",
    "defenses.trace.us_per_trace", "defenses.trace.out_in_ratio",
    "exp.pool.queue_wait_ms.p50", "exp.pool.worker_busy_frac", "exp.parallel_eff",
    "exp.cache.hit_ratio", "exp.cache.load_ms_per_cell", "exp.cache.bytes_per_cell",
    "exp.cache.store_ms_per_cell",
    "wf.features.ns_per_packet", "wf.fit.ms_per_fold", "wf.predict.ns_per_row_tree",
    "wf.leaf_index.ns_per_row_tree", "wf.knn.ms_per_fold",
    "obs.trace_overhead_frac",
]


def run_bench(workload, trace, *extra):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def failed_frac(table):
    for line in table:
        m = re.match(r"failed_frac\s+(\S+)\s+ratio$", line)
        if m:
            return float(m.group(1))
    raise AssertionError("no failed_frac row in the printed table")


class PipelineBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        cls.per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        cls.clean = {w: run_bench(w, 0) for w in WORKLOADS}

    def check_result(self, result, table, expected):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, unit in expected.items():
            metric = result["metrics"][name]
            self.assertEqual(metric["unit"], unit, name)
            self.assertIsInstance(metric["value"], (int, float), name)
            # The human-readable table prints the same metric with its unit.
            self.assertTrue(any(re.match(rf"{re.escape(name)}\s+\S+\s+{re.escape(unit)}$", l)
                                for l in table), name)
        self.assertAlmostEqual(failed_frac(table), result["failed"] / result["attempted"],
                               places=5)

    def test_benchmark_json_lists_every_named_metric(self):
        self.assertEqual(sorted(self.end_to_end), sorted(NAMED_END_TO_END))
        self.assertEqual(sorted(self.per_layer), sorted(NAMED_PER_LAYER))

    def test_end_to_end_metrics_printed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result, table = self.clean[w]
                self.check_result(result, table, self.end_to_end)
                self.assertTrue(result["correct"])
                for name in NAMED_END_TO_END:
                    self.assertGreater(result["metrics"][name]["value"], 0, name)
                # The times are scaled to the reference host speed; the
                # measured times and the reference times are printed too.
                for name in ["setup_s.measured", "run_s.measured", "cpu_s.measured",
                             "reference_s.setup", "reference_s.passes"]:
                    self.assertTrue(any(re.match(rf"{re.escape(name)}\s+\S+\s+s$", l)
                                        for l in table), name)

    def test_traced_run_prints_per_layer_metrics_and_spans(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result, table = run_bench(w, 1)
                self.check_result(result, table, self.per_layer)
                self.assertTrue(result["correct"])
                spans = [l.split(": ", 1)[1] for l in table if l.startswith("trace events: ")]
                self.assertEqual(len(spans), 1)
                events = json.loads(Path(spans[0]).read_text())["traceEvents"]
                self.assertTrue(any(e.get("ph") == "X" for e in events))

    def test_corrupted_output_raises_failed_frac(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result, table = run_bench(w, 0, "--corrupt")
                clean_frac = failed_frac(self.clean[w][1])
                self.assertGreater(failed_frac(table), clean_frac)
                self.assertFalse(result["correct"])


if __name__ == "__main__":
    unittest.main()
