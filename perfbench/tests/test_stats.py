import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from harness import stats  # noqa: E402


class TailRule(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond_it(self):
        # 1000 samples: the nearest-rank p99 is sample 990, ten lie beyond.
        values = list(range(1, 1001))
        self.assertEqual(stats.beyond(1000, 99), 10)
        self.assertEqual(stats.tail(values, 99), (99, 990))

    def test_falls_back_to_the_highest_supported_percentile(self):
        # 999 samples leave only 9 beyond p99, so p98 is reported.
        values = list(range(1, 1000))
        self.assertEqual(stats.beyond(999, 99), 9)
        p, value = stats.tail(values, 99)
        self.assertEqual(p, 98)
        self.assertGreaterEqual(stats.beyond(999, p), stats.MIN_BEYOND)
        self.assertEqual(value, stats.percentile(values, 98))

    def test_never_reports_above_the_wanted_percentile(self):
        values = list(range(1, 10001))
        self.assertEqual(stats.tail(values, 95)[0], 95)

    def test_too_few_samples_give_the_median(self):
        values = [5.0, 1.0, 3.0, 4.0, 2.0]
        self.assertEqual(stats.tail(values, 95), (50, 3.0))

    def test_spread_is_interquartile_range_over_median(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        q1, q2, q3 = 2.75, 5.5, 8.25
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / q2)


if __name__ == "__main__":
    unittest.main()
