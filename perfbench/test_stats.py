"""Tests for perfbench/stats.py.  Run: python3 -m unittest discover perfbench"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class SummarizeTest(unittest.TestCase):
    def test_empty(self):
        self.assertEqual(stats.summarize([])["n"], 0)
        self.assertIsNone(stats.summarize([])["tail"])

    def test_too_few_samples_for_any_tail(self):
        s = stats.summarize([3.0, 1.0, 2.0])
        self.assertEqual(s["median"], 2.0)
        self.assertIsNone(s["tail_level"])

    def test_p75_needs_forty_samples(self):
        # 40 samples: p75 is rank 30, leaving exactly 10 beyond it.
        s = stats.summarize(range(1, 41))
        self.assertEqual((s["tail_level"], s["tail"]), (75.0, 30))
        # 39 samples: p75 is rank 30 (ceil 29.25), only 9 beyond.
        self.assertIsNone(stats.summarize(range(1, 40))["tail_level"])

    def test_p99_at_a_thousand_samples(self):
        s = stats.summarize([float(i) for i in range(1000, 0, -1)])
        self.assertEqual(s["n"], 1000)
        self.assertEqual(s["median"], 500.5)
        self.assertEqual((s["tail_level"], s["tail"]), (99.0, 990.0))

    def test_p999_at_ten_thousand_samples(self):
        s = stats.summarize(range(1, 10001))
        self.assertEqual((s["tail_level"], s["tail"]), (99.9, 9990))

    def test_tail_at_a_fixed_level(self):
        xs = list(range(1, 1101))
        self.assertEqual(stats.tail(xs, 99.0), 1089)
        self.assertIsNone(stats.tail(xs, 99.9))

    def test_level_between(self):
        # 1100 samples: p99 is rank 1089, 11 beyond; p99.9 leaves 1.
        s = stats.summarize(range(1, 1101))
        self.assertEqual((s["tail_level"], s["tail"]), (99.0, 1089))


class ScaledTimesTest(unittest.TestCase):
    def test_host_at_reference_speed_changes_nothing(self):
        self.assertEqual(stats.scaled_times([[0.5, 2.0, 0.01, 0.01]], 0.01), (0.5, 2.0))

    def test_each_segment_scaled_by_its_own_chunks(self):
        # Host twice as slow around the first segment, at speed around
        # the second: both read as they would at reference speed.
        segments = [[1.0, 3.0, 0.02, 0.02], [0.0, 1.0, 0.01, 0.01]]
        self.assertEqual(stats.scaled_times(segments, 0.01), (0.5, 2.5))

    def test_chunks_before_and_after_averaged(self):
        setup, work = stats.scaled_times([[0.0, 3.0, 0.01, 0.02]], 0.015)
        self.assertEqual(setup, 0.0)
        self.assertAlmostEqual(work, 3.0)

    def test_no_segments(self):
        self.assertEqual(stats.scaled_times([], 0.015), (0.0, 0.0))


def span(name, layer, parent, start, end):
    return [name, layer, 0, parent, start, end]


class SelfTimeTest(unittest.TestCase):
    # pass [0,10] > setup [0,2] > topology [0,1.5]
    #              cell [2,9] > infer [3,4], infer [5,8]
    SPANS = [
        span("pass", False, -1, 0.0, 10.0),
        span("setup", False, 0, 0.0, 2.0),
        span("topology.generate", True, 1, 0.0, 1.5),
        span("cell", False, 0, 2.0, 9.0),
        span("infer", True, 3, 3.0, 4.0),
        span("infer", True, 3, 5.0, 8.0),
    ]

    def test_self_time_subtracts_direct_children_only(self):
        selfs = stats.self_times(self.SPANS)
        self.assertEqual(selfs, [1.0, 0.5, 1.5, 3.0, 1.0, 3.0])

    def test_untraced_fraction(self):
        # Non-layer self time: pass 1 + setup 0.5 + cell 3 = 4.5 of 10.
        self.assertAlmostEqual(stats.untraced_fraction(self.SPANS), 0.45)

    def test_untraced_fraction_fully_covered(self):
        spans = [span("pass", False, -1, 0.0, 4.0), span("x", True, 0, 0.0, 4.0)]
        self.assertEqual(stats.untraced_fraction(spans), 0.0)

    def test_totals(self):
        t = stats.span_totals(self.SPANS)
        self.assertEqual(t["infer"]["count"], 2)
        self.assertEqual(t["infer"]["total"], 4.0)
        self.assertEqual(t["cell"]["self"], 3.0)


if __name__ == "__main__":
    unittest.main()
