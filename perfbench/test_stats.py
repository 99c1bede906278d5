"""Self-tests of the benchmark's percentile selection, bound comparison,
span statistics and metric tables.

    python3 perfbench/test_stats.py
"""

import json
import pathlib
import statistics
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import run  # noqa: E402
import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([7.0], 99), 7.0)
        self.assertEqual(stats.percentile([3, 1, 2], 50), 2)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(stats.tail_percentile(10000), 99.9)
        self.assertEqual(stats.tail_percentile(9999), 99.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(999), 95.0)
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(40), 75.0)
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertIsNone(stats.tail_percentile(19))


class BoundTest(unittest.TestCase):
    def test_quartile_spread(self):
        values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
        q1, median, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.quartile_spread(values), (q3 - q1) / median)
        self.assertEqual(stats.quartile_spread([5.0] * 10), 0.0)

    def test_worse_by_respects_direction(self):
        self.assertAlmostEqual(stats.worse_by(100, 110, "lower"), 0.10)
        self.assertAlmostEqual(stats.worse_by(100, 90, "lower"), -0.10)
        self.assertAlmostEqual(stats.worse_by(100, 90, "higher"), 0.10)
        self.assertAlmostEqual(stats.worse_by(100, 110, "higher"), -0.10)

    def test_within_bound(self):
        self.assertTrue(stats.within_bound(100, 109.9, "lower", 0.1))
        self.assertFalse(stats.within_bound(100, 110.1, "lower", 0.1))
        self.assertTrue(stats.within_bound(100, 150, "higher", 0.1))
        self.assertFalse(stats.within_bound(100, 89, "higher", 0.1))
        self.assertTrue(stats.within_bound(0, 0, "lower", 0.1))
        self.assertFalse(stats.within_bound(0, 1, "lower", 0.1))


def span(call, rank, parent, host_ns, virt_ns):
    """One span-file row: (start, end) pairs on both clocks."""
    return {"call": call, "rank": str(rank), "parent": str(parent),
            "host_start_ns": str(host_ns[0]), "host_end_ns": str(host_ns[1]),
            "virt_start_ns": str(virt_ns[0]), "virt_end_ns": str(virt_ns[1])}


class SpanMetricsTest(unittest.TestCase):
    def test_timed_spans_percentiles_and_ledger(self):
        rows = [
            span("p2p.send", 0, -1, (0, 9000), (0, 9000)),  # warm-up
            span("op.pingpong", 0, -1, (0, 5000), (1000, 3000)),
            span("p2p.send", 0, 1, (0, 2000), (1000, 1500)),
            span("p2p.send", 1, -1, (0, 8000), (0, 800)),  # rank 1 warm-up
            span("op.pingpong", 0, -1, (0, 9000), (3000, 7000)),
            span("p2p.send", 0, 3, (0, 4000), (3000, 4000)),
            span("coll.allreduce", 1, -1, (0, 3000), (800, 1800)),
            span("p2p.send", 0, -1, (0, 1000), (7000, 7100)),  # after the phase
        ]
        m = run.span_metrics(rows, [[1, 5], [1, 2]], [6500.0, 1000.0])
        self.assertEqual(m["p2p.send.calls"], 2)
        self.assertEqual(m["p2p.send.virt_us_p50"], 0.5)
        self.assertEqual(m["p2p.send.host_us_p50"], 2.0)
        self.assertEqual(m["coll.allreduce.virt_us_p99"], 1.0)
        self.assertEqual(m["p2p.recv.calls"], 0)
        self.assertEqual(m["p2p.recv.virt_us_p50"], 0.0)
        # rank 0: 6500 - (2000 + 4000); rank 1: 1000 - 1000
        self.assertAlmostEqual(m["ledger.unattributed_virt_us"], 0.5)
        for name in run.PER_LAYER:
            if run.SPAN_STAT.match(name):
                self.assertIn(name, m)


class MetricTableTest(unittest.TestCase):
    def test_benchmark_json_matches_run_py(self):
        path = run.BENCH_DIR.parent / "BENCHMARK.json"
        if not path.is_file():
            self.skipTest("no BENCHMARK.json beside the benchmark")
        spec = json.loads(path.read_text())
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         {k: v[0] for k, v in run.END_TO_END.items()})
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)
        for metric in spec["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)


if __name__ == "__main__":
    unittest.main()
