import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)

from harness import report  # noqa: E402

CATALOGUE = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


class MetricNames(unittest.TestCase):
    def test_grammar(self):
        for good in ("setup_s", "latency_ms_p95", "core.moves_per_s", "9x",
                     "a" * 64, "trace.overhead_s", "a-b"):
            self.assertTrue(report.valid_name(good), good)
        for bad in ("", "_lead", ".lead", "-lead", "a" * 65, "has space",
                    "slash/no", "uniçode"):
            self.assertFalse(report.valid_name(bad), bad)

    def test_unit_grammar(self):
        for good in ("ms", "s", "1/s", "count", "%", "MB/s"):
            self.assertTrue(report.valid_unit(good), good)
        for bad in ("", "a" * 17, "m s"):
            self.assertFalse(report.valid_unit(bad), bad)

    def test_benchmark_json_obeys_the_grammar(self):
        spec = report.load_catalogue(CATALOGUE)
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         {"flat2way", "multilevel", "kway", "serve"})
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(max(m["bound"] for m in spec["end_to_end"]),
                         setup[0]["bound"])

    def test_repeated_name_is_refused(self):
        spec = {"workloads": [{"name": "a", "why": "x"}],
                "end_to_end": [{"name": "a", "unit": "s"}], "per_layer": []}
        with self.assertRaises(ValueError):
            report.check_catalogue(spec)

    def test_result_line_needs_exactly_the_catalogue(self):
        catalogue = [{"name": "wall_s", "unit": "s"}]
        line = json.loads(report.result_line(catalogue, {"wall_s": 1.5},
                                             True, 3, 0))
        self.assertEqual(line, {"correct": True, "attempted": 3, "failed": 0,
                                "metrics": {"wall_s": {"value": 1.5,
                                                       "unit": "s"}}})
        with self.assertRaises(ValueError):
            report.result_line(catalogue, {"wall_s": 1, "extra": 2}, True,
                               1, 0)


if __name__ == "__main__":
    unittest.main()
