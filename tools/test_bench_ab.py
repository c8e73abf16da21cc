#!/usr/bin/env python3
"""Tests of tools/bench_ab.py's verdict on synthetic pairs (no build):
python3 tools/test_bench_ab.py"""
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_ab  # noqa: E402

TIGHT = [1000 + i for i in range(10)]          # median 1004.5, IQR 4.5
WIDE = [700 + 100 * i for i in range(10)]      # median 1150, IQR 450


def pairs(parent, change):
    return [({"ok": True, "metrics": {"images_per_s": p}},
             {"ok": True, "metrics": {"images_per_s": c}})
            for p, c in zip(parent, change)]


class VerdictTest(unittest.TestCase):
    def test_ties_count_for_neither_side(self):
        s = bench_ab.summarize([1, 2, 3, 4], [1, 3, 2, 4], "higher")
        self.assertEqual((s["wins"], s["losses"], s["ties"]), (1, 1, 2))
        s = bench_ab.summarize([5, 5, 5], [5, 5, 4], "lower")
        self.assertEqual((s["wins"], s["losses"], s["ties"]), (1, 0, 2))

    def test_lost_majority_with_gap_inside_iqr_passes(self):
        # Every pair lost by 150: past 10% of 1150, inside the IQR of 450.
        self.assertEqual(bench_ab.verdict(pairs(WIDE, [v - 150 for v in WIDE])), [])

    def test_gap_above_iqr_but_under_bound_passes(self):
        self.assertEqual(bench_ab.verdict(pairs(TIGHT, [v * 0.95 for v in TIGHT])), [])

    def test_gap_above_iqr_and_bound_fails(self):
        reasons = bench_ab.verdict(pairs(TIGHT, [v * 0.85 for v in TIGHT]))
        self.assertEqual(len(reasons), 1)
        self.assertIn("images_per_s", reasons[0])

    def test_a_gap_above_both_needs_a_lost_majority(self):
        def halve(lost):
            return [v * 0.5 if i < lost else v + 1 for i, v in enumerate(TIGHT)]
        self.assertEqual(bench_ab.verdict(pairs(TIGHT, halve(5))), [])
        self.assertNotEqual(bench_ab.verdict(pairs(TIGHT, halve(6))), [])

    def test_one_failed_or_incorrect_run_fails(self):
        line = {"correct": True, "metrics": {"images_per_s": {"value": 5.0}}}
        good = bench_ab.outcome(0, "config x\n" + json.dumps(line))
        self.assertEqual(good, {"ok": True, "metrics": {"images_per_s": 5.0}})
        incorrect = bench_ab.outcome(0, json.dumps(dict(line, correct=False)))
        for run in (incorrect, bench_ab.outcome(1, json.dumps(line)),
                    bench_ab.outcome(0, "no json")):
            self.assertFalse(run["ok"])
            for side in (0, 1):
                runs = pairs(TIGHT, TIGHT)
                runs[3][side].update(run)
                self.assertNotEqual(bench_ab.verdict(runs), [])

    def test_first_side_alternates(self):
        plan = bench_ab.schedule()
        self.assertEqual(len(plan), 10)
        self.assertEqual(len({seed for seed, _ in plan}), 10)
        firsts = [first for _, first in plan]
        self.assertEqual(firsts[0], "parent")
        self.assertTrue(all(a != b for a, b in zip(firsts, firsts[1:])))


if __name__ == "__main__":
    unittest.main()
