#!/usr/bin/env python3
"""Tests of the benchmark's own code.

    python3 perfbench/test_perfbench.py

Fast tests cover the statistics, the metric formulas, the compare mode and
BENCHMARK.json's agreement with them. The rest build the benchmark package
and run its gate unit test and a short traced pass of every workload,
checking that per-phase I/Os sum exactly to block_ios and that each layer
is active exactly where the workload table says.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import compare  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402


def query(wall_ms, reads=10, writes=5, ok=True, traced=False, phases=None, **extra):
    q = {"traced": traced, "ok": ok, "error": "" if ok else "boom",
         "wall_ns": int(wall_ms * 1e6), "block_reads": reads, "block_writes": writes,
         "cache_hits": 100, "work": 1000, "device_peak_words": 64,
         "read_calls": 0, "write_calls": 0, "bytes_read": 0, "bytes_written": 0,
         "retries": 0, "syscall_ns": 0, "simd_invocations": 3, "par_tasks": 0,
         "par_busy_ns": 0, "block": 0, "phases": phases or []}
    q.update(extra)
    return q


def raw_run(queries, setups=((1e8, 2e8), (1e8, 4e8), (2e8, 2e8))):
    return {
        "provenance": {"edges": 1000, "threads": 2, "min_queries": 3},
        "setups": [{"read_ns": int(r), "load_ns": int(l)} for r, l in setups],
        "queries": queries, "io_bound": 30.0, "peak_rss_mb": 12.5,
        "rss_before_setup_mb": 2.0, "rss_after_setup_mb": 5.0,
    }


class Statistics(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(metrics.median([3, 1, 2]), 2)
        self.assertEqual(metrics.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            metrics.median([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [9.0, 1.0, 7.0, 3.0, 5.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        q1, q2, q3 = metrics.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        # The default (exclusive) method on 1..10.
        self.assertEqual((q1, q2, q3), (2.75, 5.5, 8.25))

    def test_single_value_is_its_own_quartiles(self):
        self.assertEqual(metrics.quartiles([4.0]), (4.0, 4.0, 4.0))


class Formulas(unittest.TestCase):
    def test_end_to_end(self):
        raw = raw_run([query(10), query(30), query(20, reads=20),
                       query(999, traced=True)])
        m = metrics.end_to_end(raw)
        self.assertAlmostEqual(m["setup_s"], 0.4)  # median of 0.3, 0.5, 0.4
        self.assertEqual(m["query_ms_p50"], 20)  # traced query excluded
        self.assertAlmostEqual(m["edges_per_s"], 1000 * 3 / 0.060)
        self.assertAlmostEqual(m["block_ios"], (15 + 15 + 25) / 3)
        self.assertEqual(m["peak_rss_mb"], 12.5)
        self.assertEqual(set(m), set(metrics.END_TO_END_UNITS))

    def test_counters_use_only_the_first_min_queries(self):
        raw = raw_run([query(10), query(10), query(10), query(10, reads=1000)])
        self.assertEqual(metrics.end_to_end(raw)["block_ios"], 15)
        self.assertEqual(metrics.per_layer(raw)["em.block_reads"], 10)

    def test_edges_per_s_is_the_median_window_throughput(self):
        queries = [query(10, block=0), query(30, block=0),  # 2 in 40 ms
                   query(1000, block=1),                     # 1 in 1 s
                   query(20, block=2)]                       # 1 in 20 ms
        self.assertAlmostEqual(metrics.edges_per_s(100, queries), 100 * 2 / 0.040)

    def test_a_corrupted_query_counts_as_failed(self):
        raw = raw_run([query(10), query(10, ok=False), query(10)])
        self.assertEqual(metrics.outcome(raw), (3, 1, "boom"))
        # Its counters stay out of the means.
        self.assertEqual(metrics.end_to_end(raw)["block_ios"], 15)

    def test_a_failed_query_does_not_read_as_fast(self):
        raw = raw_run([query(10), query(1, ok=False), query(20), query(1, ok=False),
                       query(30)])
        m = metrics.end_to_end(raw)
        self.assertEqual(m["query_ms_p50"], 20)
        self.assertAlmostEqual(m["edges_per_s"], 1000 * 3 / 0.060)
        all_failed = metrics.end_to_end(raw_run([query(1, ok=False)]))
        self.assertEqual((all_failed["query_ms_p50"], all_failed["edges_per_s"]), (0, 0))

    def test_per_layer_phases_and_par(self):
        phases = [
            {"name": "pivot.cone_scan", "self_wall_ns": 6_000_000,
             "block_reads": 8, "block_writes": 2, "work": 600},
            {"name": "query.run", "self_wall_ns": 1_000_000,
             "block_reads": 2, "block_writes": 3, "work": 400},
        ]
        raw = raw_run([query(10), query(12, traced=True, phases=phases,
                                        par_tasks=4, par_busy_ns=6_000_000)])
        m = metrics.per_layer(raw)
        self.assertEqual(set(m), set(metrics.PER_LAYER_UNITS))
        self.assertAlmostEqual(m["pivot.cone_scan.self_ms"], 6.0)
        self.assertEqual(m["pivot.cone_scan.ios"], 10)
        self.assertAlmostEqual(m["pivot.cone_scan.share"], 0.5)
        self.assertAlmostEqual(m["pivot.cone_scan.ns_per_work"], 1e4)
        self.assertEqual(m["co.recurse.share"], 0.0)
        self.assertAlmostEqual(m["query.run.self_ms"], 1.0)
        self.assertAlmostEqual(m["par.utilization"], 6 / (2 * 12))
        self.assertAlmostEqual(m["obs.trace_overhead"], 1.2)
        self.assertAlmostEqual(m["core.io_over_bound"], 0.5)
        self.assertAlmostEqual(m["graph.rss_growth_mb"], 3.0)


class Compare(unittest.TestCase):
    def test_win_share_pairs_by_seed(self):
        base = {1: 10.0, 2: 10.0, 3: 10.0, 4: 10.0}
        change = {1: 9.0, 2: 11.0, 3: 10.0, 4: 8.0}
        self.assertEqual(compare.win_share(base, change, "lower"), 2 / 4)
        self.assertEqual(compare.win_share(base, change, "higher"), 1 / 4)

    def test_win_share_is_none_without_common_seeds(self):
        self.assertIsNone(compare.win_share({1: 5.0}, {2: 4.0, 3: 6.0}, "lower"))

    @staticmethod
    def write_results(d, scale, seeds, failed=0):
        for seed in seeds:
            raw = raw_run([query(10 * scale * seed)])
            for trace in (0, 1):
                values = metrics.per_layer(raw) if trace else metrics.end_to_end(raw)
                with open(os.path.join(d, f"w-seed{seed}-trace{trace}.json"), "w") as f:
                    json.dump({"workload": "w", "seed": seed, "trace": trace,
                               "attempted": 10, "failed": failed, "metrics": values,
                               "phases": {"p": {"self_ms": seed, "ios": 1}}}, f)

    def compare(self, a, b):
        return subprocess.run([sys.executable, os.path.join(HERE, "compare.py"), a, b],
                              capture_output=True, text=True)

    def test_compare_runs_end_to_end(self):
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            self.write_results(a, 1.0, (1, 2, 3))
            self.write_results(b, 0.5, (1, 2, 3))
            r = self.compare(a, b)
            self.assertEqual(r.returncode, 0, r.stderr)
            line = next(l for l in r.stdout.splitlines() if "query_ms_p50" in l)
            self.assertIn("-50.00%", line)
            self.assertIn("100%", line)
            self.assertIn("phases, largest self-time change first", r.stdout)

    def test_compare_without_common_seeds_reads_n_a(self):
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            self.write_results(a, 1.0, (1, 2))
            self.write_results(b, 0.5, (3, 4))
            r = self.compare(a, b)
            line = next(l for l in r.stdout.splitlines() if "query_ms_p50" in l)
            self.assertIn("n/a", line)

    def test_compare_flags_a_change_that_fails_more(self):
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            self.write_results(a, 1.0, (1, 2))
            self.write_results(b, 0.5, (1, 2), failed=1)
            r = self.compare(a, b)
            self.assertEqual(r.returncode, 1)
            self.assertIn("base 0 of 20, change 2 of 20  CHANGE FAILS MORE", r.stdout)


class BenchmarkSpec(unittest.TestCase):
    def test_spec_lists_exactly_the_reported_metrics(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         metrics.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         metrics.PER_LAYER_UNITS)
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(m["bound"] for m in spec["end_to_end"]))


@unittest.skipIf(os.environ.get("PERFBENCH_FAST"), "PERFBENCH_FAST set")
class Binary(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_gate_unit_test(self):
        subprocess.run([os.path.join(run.BUILD_DIR, "perfbench_gate_test")], check=True)

    def test_traced_pass_of_every_workload(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
        with tempfile.TemporaryDirectory(dir=run.BUILD_ROOT) as work:
            for w in workloads:
                with self.subTest(workload=w):
                    trace = os.path.join(work, w + ".trace.json")
                    common = [run.BINARY, "--workload", w, "--seed", "3",
                              "--work-dir", work]
                    subprocess.run(common + ["--prepare", "1"], check=True)
                    out = subprocess.run(
                        common + ["--seconds", "0.1", "--trace", "1", "--min-queries", "1",
                                  "--trace-file", trace],
                        capture_output=True, text=True, check=True).stdout
                    raw = json.loads(out)
                    self.check_workload(w, raw)
                    self.check_trace(trace)

    def check_workload(self, w, raw):
        self.assertEqual(metrics.outcome(raw)[1], 0, metrics.outcome(raw)[2])
        untraced, traced = metrics.split_queries(raw)
        self.assertEqual(len(untraced), len(traced))
        for a, b in zip(untraced, traced):
            ios = b["block_reads"] + b["block_writes"]
            self.assertEqual(sum(p["block_reads"] + p["block_writes"]
                                 for p in b["phases"]), ios)
            self.assertEqual(a["block_reads"] + a["block_writes"], ios)
            self.assertEqual(a["work"], b["work"])
        m = metrics.per_layer(raw)
        self.assertEqual(m["storage.read_calls"] > 0, w == "rmat16-file")
        self.assertEqual(m["storage.syscall_ms"] > 0, w == "rmat16-file")
        self.assertEqual(m["par.tasks"] > 0, w == "rmat16-mem")
        if w == "co-rmat12":
            self.assertGreater(m["co.recurse.share"], 0.9)
        else:
            self.assertGreater(m["pivot.cone_scan.share"], 0.5)

    def check_trace(self, path):
        with open(path) as f:
            names = {e["name"] for e in json.load(f)["traceEvents"] if e.get("ph") == "X"}
        for span in ("bench.read", "bench.load", "graph.load", "bench.query",
                     "bench.check", "query.run"):
            self.assertIn(span, names)
        summary = os.path.join(run.ROOT, "tools", "trace_summary.py")
        if os.path.exists(summary):
            subprocess.run([sys.executable, summary, path], check=True,
                           stdout=subprocess.DEVNULL)


if __name__ == "__main__":
    unittest.main()
