"""Tests for the benchmark's own statistics and metric-name code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The per-layer names the Rust ledger prints are checked against
BENCHMARK.json by `cargo test --manifest-path perfbench/Cargo.toml`.
"""

import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


def fake_raw(segments=120):
    return {
        "setup_s": [0.4, 0.3, 0.5],
        "segment_ms": [float(i) for i in range(1, segments + 1)],
        "items": 3200,
        "steady_s": 8.0,
        "state_bytes": [1024, 3072],
        "accuracy": [0.5, 0.7],
        "attempted": 120,
        "failed": 0,
    }


class TailPercentile(unittest.TestCase):
    def test_p90_needs_100_samples(self):
        self.assertEqual(run.tail_percentile(100), 90)
        self.assertEqual(run.tail_percentile(99), 89)

    def test_capped_at_p90(self):
        self.assertEqual(run.tail_percentile(10_000), 90)

    def test_fewer_samples_give_a_lower_percentile(self):
        self.assertEqual(run.tail_percentile(50), 80)
        self.assertEqual(run.tail_percentile(20), 50)
        self.assertEqual(run.tail_percentile(11), 9)

    def test_ten_samples_have_no_tail(self):
        self.assertIsNone(run.tail_percentile(10))
        self.assertIsNone(run.tail_percentile(0))

    def test_highest_percentile_with_ten_beyond(self):
        for n in range(11, 400):
            p = run.tail_percentile(n)
            self.assertGreaterEqual(n - run.nearest_rank(n, p), 10, n)
            if p < 90:
                self.assertLess(n - run.nearest_rank(n, p + 1), 10, n)


class Percentile(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(100, 0, -1))
        self.assertEqual(run.percentile(values, 90), 90)
        self.assertEqual(run.percentile(values, 50), 50)
        self.assertEqual(run.percentile(values, 1), 1)
        self.assertEqual(run.percentile([7.0], 90), 7.0)


class Quartiles(unittest.TestCase):
    def test_quartiles_match_the_exclusive_method(self):
        self.assertEqual(run.quartiles([1, 2, 3, 4, 5, 6, 7, 8]), (2.25, 6.75))
        self.assertEqual(run.quartiles([12, 8, 10, 11, 9]), (8.5, 11.5))

    def test_relative_spread(self):
        self.assertEqual(run.relative_spread([10, 10, 10, 10]), 0)
        self.assertAlmostEqual(run.relative_spread([8, 9, 10, 11, 12]), 0.3)


class EndToEnd(unittest.TestCase):
    def test_values(self):
        m = run.end_to_end(fake_raw(), peak_rss_kib=2048)
        self.assertEqual(m["setup_s"], (0.4, "s", 3))
        self.assertEqual(m["items_per_s"], (400.0, "items/s", 120))
        self.assertEqual(m["segment_ms_p50"], (60.5, "ms", 120))
        self.assertEqual(m["segment_ms_p90"], (108.0, "ms", 120))
        self.assertEqual(m["peak_rss_mb"], (2.0, "MiB", 1))
        self.assertEqual(m["state_kb"], (2.0, "KiB", 2))
        self.assertAlmostEqual(m["accuracy"][0], 0.6)
        self.assertEqual(m["completed_frac"], (1.0, "fraction", 120))

    def test_failures_lower_completed_frac(self):
        raw = dict(fake_raw(), failed=30)
        self.assertEqual(run.end_to_end(raw, 1024)["completed_frac"][0], 0.75)

    def test_too_few_segments_is_an_error(self):
        with self.assertRaises(ValueError):
            run.end_to_end(fake_raw(segments=10), 1024)


class MetricNames(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_printed_end_to_end_names_are_exactly_the_declared_ones(self):
        metrics = run.end_to_end(fake_raw(), 1024)
        self.assertEqual(run.name_mismatch(metrics, self.spec, trace=0), ([], []))

    def test_a_declared_metric_that_is_not_printed_is_caught(self):
        metrics = run.end_to_end(fake_raw(), 1024)
        del metrics["accuracy"]
        self.assertEqual(
            run.name_mismatch(metrics, self.spec, trace=0), ([], [("accuracy", "fraction")])
        )

    def test_a_printed_metric_that_is_not_declared_is_caught(self):
        metrics = run.end_to_end(fake_raw(), 1024)
        metrics["bogus"] = (1.0, "ms", 1)
        self.assertEqual(run.name_mismatch(metrics, self.spec, trace=0), ([("bogus", "ms")], []))

    def test_per_layer_names_are_checked_against_per_layer(self):
        raw = {
            "traced_segments": 12,
            "layers": {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in self.spec["per_layer"]},
        }
        self.assertEqual(run.name_mismatch(run.per_layer(raw), self.spec, trace=1), ([], []))
        self.assertNotEqual(run.name_mismatch(run.per_layer(raw), self.spec, trace=0), ([], []))


if __name__ == "__main__":
    unittest.main()
