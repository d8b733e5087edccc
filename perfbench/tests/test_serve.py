import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from harness import layers, serve  # noqa: E402


def done(job_id):
    return {"id": job_id, "state": "done"}


class ServeTally(unittest.TestCase):
    def test_duplicate_and_missing_ids_count_as_failed(self):
        submitted = ["a", "b", "c", "d"]
        # "b" is answered twice, "d" never; the rest are done once.
        responses = [done("a"), done("b"), done("c"), done("b")]
        counts = serve.tally(submitted, responses)
        self.assertEqual(counts["attempted"], 4)
        self.assertEqual(counts["done"], 3)
        self.assertEqual(counts["duplicate"], 1)
        self.assertEqual(counts["missing"], 1)
        self.assertEqual(counts["bad"], 2)

    def test_failed_shed_invalid_and_unknown(self):
        submitted = ["a", "b", "c"]
        responses = [{"id": "a", "state": "failed"},
                     {"id": "b", "state": "shed"},
                     {"id": "c", "state": "invalid"},
                     {"id": "zz", "state": "done"},
                     {"state": "invalid"}]
        counts = serve.tally(submitted, responses)
        self.assertEqual((counts["failed"], counts["shed"], counts["invalid"]),
                         (1, 1, 1))
        self.assertEqual(counts["unknown"], 2)
        self.assertEqual(counts["bad"], 5)

    def test_clean_transcript(self):
        counts = serve.tally(["a", "b"], [done("b"), done("a")])
        self.assertEqual(counts["bad"], 0)


class SelfTime(unittest.TestCase):
    def test_children_covering_overlapping_intervals(self):
        spans = [
            {"name": "partition.run_many", "start_s": 0.0, "end_s": 10.0,
             "parent": -1},
            # Two parallel runs under run_many cover [1, 9].
            {"name": "partition.run", "start_s": 1.0, "end_s": 6.0,
             "parent": 0},
            {"name": "partition.run", "start_s": 2.0, "end_s": 9.0,
             "parent": 0},
            {"name": "kway.kway_refine", "start_s": 2.0, "end_s": 5.0,
             "parent": 2},
        ]
        own = layers.self_times(spans)
        self.assertAlmostEqual(own["kway"], 3.0)
        # run_many 10 - 8 covered; runs 5 and 7 - 3.
        self.assertAlmostEqual(own["partition"], 2.0 + 5.0 + 4.0)


if __name__ == "__main__":
    unittest.main()
