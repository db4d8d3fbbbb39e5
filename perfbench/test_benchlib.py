"""Tests for the benchmark's own code: python3 perfbench/test_benchlib.py"""

import sys

sys.dont_write_bytecode = True

import os
import statistics
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib as bl  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_median_and_quartiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(bl.median(values), 3.0)
        self.assertEqual(bl.median([1.0, 2.0, 3.0, 4.0]), 2.5)
        self.assertEqual(bl.quartiles(values), tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(bl.quartiles(list(range(1, 11))), (2.75, 5.5, 8.25))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(bl.spread(list(range(1, 11))), (8.25 - 2.75) / 5.5)
        self.assertEqual(bl.spread([2.0] * 10), 0.0)

    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))
        self.assertEqual(bl.percentile(values, 50), 50)
        self.assertEqual(bl.percentile(values, 99), 99)
        self.assertEqual(bl.percentile(values, 100), 100)
        self.assertEqual(bl.percentile([7.0], 99), 7.0)

    def test_tail_keeps_ten_samples_beyond(self):
        # 1000 samples: p99 leaves exactly 10 above it.
        p, value, n = bl.tail(list(range(1000)))
        self.assertEqual((p, value, n), (99.0, 989, 1000))
        # 1001 samples: p99.9 leaves only 1; p99 leaves 10.
        self.assertEqual(bl.tail(list(range(1001)))[0], 99.0)
        # 100 samples: p90 leaves 10.
        self.assertEqual(bl.tail(list(range(100)))[:2], (90.0, 89))
        # 21 samples: only the median leaves 10 above.
        self.assertEqual(bl.tail(list(range(21)))[0], 50.0)
        # Too few samples for any tail, but the count is still reported.
        self.assertEqual(bl.tail(list(range(10))), (None, None, 10))

    def test_tail_counts_ties_as_not_beyond(self):
        values = [1.0] * 50 + [2.0] * 5
        self.assertEqual(bl.tail(values), (None, None, 55))


class BoundCheck(unittest.TestCase):
    def test_steady_and_unchanged_passes(self):
        a = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
        ok, reasons = bl.bound_check(a, list(a), 0.1, "lower")
        self.assertTrue(ok, reasons)

    def test_worse_median_fails_by_direction(self):
        a = [10.0] * 9 + [10.1]
        slower = [x * 1.2 for x in a]
        self.assertFalse(bl.bound_check(a, slower, 0.1, "lower")[0])
        # Higher is better: a larger value is not a regression.
        self.assertTrue(bl.bound_check(a, slower, 0.1, "higher")[0])
        self.assertFalse(bl.bound_check(slower, a, 0.1, "higher")[0])

    def test_wide_spread_fails(self):
        a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        ok, reasons = bl.bound_check(a, a, 0.25, "lower")
        self.assertFalse(ok)
        self.assertIn("spread", reasons[0])

    def test_improvement_within_bound(self):
        a = [10.0] * 10
        self.assertTrue(bl.bound_check(a, [9.0] * 10, 0.05, "lower")[0])


class Markers(unittest.TestCase):
    LINES = [
        (0.00, "== table1 =="),
        (0.01, "  [fft] exhaustive campaign 0/40960"),
        (0.30, "  [fft] exhaustive campaign 40960/40960"),
        (0.41, "  [fft] context ready: 640 sites, 40960 cases (0.4s)"),
        (0.42, "  [lu] exhaustive campaign 0/7168"),
        (0.45, "  [lu] context ready: 112 sites, 7168 cases (0.0s)"),
        (0.50, "  csv: out/table1.csv"),
        (0.60, "== fig3 =="),
        (0.70, "== table4 =="),
        (0.80, "  [cg-6x6] exhaustive campaign 0/63808"),
        (1.50, "  [cg-6x6] context ready: 997 sites, 63808 cases (0.7s)"),
        (2.00, "total wall time: 2.0s"),
    ]

    def test_stages_and_contexts(self):
        stages, contexts, problems = bl.parse_markers(self.LINES, end=2.1)
        self.assertEqual(
            stages, [("table1", 0.0, 0.6), ("fig3", 0.6, 0.7), ("table4", 0.7, 2.0)])
        # A context starts at the line before its first campaign line.
        self.assertEqual(
            contexts,
            [("fft", "table1", 0.0, 0.41, 40960), ("lu", "table1", 0.41, 0.45, 7168),
             ("cg-6x6", "table4", 0.7, 1.5, 63808)])
        self.assertEqual(problems, [])

    def test_last_stage_ends_at_exit_without_total_line(self):
        stages, _, _ = bl.parse_markers(self.LINES[:-1], end=2.1)
        self.assertEqual(stages[-1], ("table4", 0.7, 2.1))

    def test_missing_markers_are_reported_not_guessed(self):
        lines = [l for l in self.LINES if "lu] context ready" not in l[1] and l[1] != "== fig3 =="]
        stages, contexts, problems = bl.parse_markers(lines, end=2.1,
                                                      expected_stages=["table1", "fig3"])
        self.assertNotIn("lu", [c[0] for c in contexts])
        self.assertNotIn("fig3", [s[0] for s in stages])
        self.assertIn("context lu: no 'context ready' marker", problems)
        self.assertIn("stage fig3: no '== fig3 ==' marker", problems)

    def test_ready_without_campaign_line(self):
        _, contexts, problems = bl.parse_markers(
            [(0.0, "== t =="), (1.0, "  [x] context ready: 1 sites, 64 cases (1.0s)")], end=1.0)
        self.assertEqual(contexts, [])
        self.assertEqual(problems, ["context x: no 'exhaustive campaign' marker"])


class Proc(unittest.TestCase):
    def test_stat_fields_after_command_name(self):
        text = ("4242 (ftb_cli.exe) S 1 4242 4242 0 -1 4194304 1203 0 0 0 "
                "371 45 0 0 20 0 3 0 12345 123456789 4321 18446744073709551615\n")
        self.assertEqual(bl.parse_proc_stat(text), {"state": "S", "utime": 371, "stime": 45})

    def test_stat_command_with_spaces_and_parens(self):
        text = "7 (a (b) c) R 1 7 7 0 -1 0 0 0 0 0 12 3 0 0 20 0 1 0 5 6 7\n"
        self.assertEqual(bl.parse_proc_stat(text), {"state": "R", "utime": 12, "stime": 3})

    def test_vm_hwm(self):
        status = "Name:\tftb_cli.exe\nVmPeak:\t  99 kB\nVmHWM:\t   63012 kB\nVmRSS:\t 1 kB\n"
        self.assertEqual(bl.parse_vm_hwm_kib(status), 63012)
        with self.assertRaises(ValueError):
            bl.parse_vm_hwm_kib("Name:\tx\n")

    def test_own_process(self):
        with open("/proc/self/stat") as f:
            st = bl.parse_proc_stat(f.read())
        self.assertGreaterEqual(st["utime"] + st["stime"], 0)


class SelfTime(unittest.TestCase):
    def test_children_overlap_counted_once(self):
        spans = [
            {"id": "a", "name": "root", "start": 0.0, "end": 10.0, "parent": None},
            {"id": "b", "name": "x", "start": 1.0, "end": 4.0, "parent": "a"},
            {"id": "c", "name": "y", "start": 3.0, "end": 5.0, "parent": "a"},
            {"id": "d", "name": "z", "start": 6.0, "end": 7.0, "parent": "a"},
            {"id": "e", "name": "w", "start": 1.5, "end": 2.0, "parent": "b"},
        ]
        selfs = bl.self_times(spans)
        self.assertAlmostEqual(selfs["a"], 10.0 - 4.0 - 1.0)
        self.assertAlmostEqual(selfs["b"], 2.5)
        self.assertAlmostEqual(selfs["e"], 0.5)


if __name__ == "__main__":
    unittest.main()
