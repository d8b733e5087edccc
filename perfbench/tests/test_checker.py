import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from harness import checker  # noqa: E402

# Six unit-size nodes, four nets; net costs 2, 1, 3, 1 (fmt 1).
#   net 0: {1, 2}     net 1: {2, 3, 4}   net 2: {4, 5}   net 3: {5, 6, 1}
HGR = """% hand-built
4 6 1
2 1 2
1 2 3 4
3 4 5
1 5 6 1
"""


class Checker(unittest.TestCase):
    def setUp(self):
        self.g = checker.parse_hgr(HGR)

    def test_parses_pins_and_costs(self):
        self.assertEqual(self.g.num_nodes, 6)
        self.assertEqual(self.g.nets, [(0, 1), (1, 2, 3), (3, 4), (0, 4, 5)])
        self.assertEqual(self.g.net_costs, [2, 1, 3, 1])
        self.assertEqual(self.g.node_sizes, [1] * 6)

    def test_known_cut(self):
        # {1,2,3} | {4,5,6}: nets 1 and 3 are cut, cost 1 + 1.
        part = [0, 0, 0, 1, 1, 1]
        self.assertEqual(checker.cut_cost(self.g, part), 2)
        cost, errors = checker.check(self.g, part, 2, claimed_cost=2)
        self.assertEqual((cost, errors), (2, []))

    def test_known_connectivity(self):
        # Parts {1,2} {3,4} {5,6}: net 1 spans 2 parts, net 2 spans 2,
        # net 3 spans 2 -> 1 + 3 + 1.
        part = [0, 0, 1, 1, 2, 2]
        self.assertEqual(checker.connectivity_cost(self.g, part), 5)

    def test_wrong_claim_is_a_mismatch(self):
        _, errors = checker.check(self.g, [0, 0, 0, 1, 1, 1], 2,
                                  claimed_cost=1)
        self.assertTrue(any("claimed cost" in e for e in errors))

    def test_corrupted_partition_is_caught(self):
        # Flipping nodes 4 and 5 of the partition above, under its claimed
        # cost: the real cost is now 1 (net 3 only) and side 0 holds 5 of
        # 6 nodes, outside the 45-55 window.
        corrupted = [0, 0, 0, 0, 0, 1]
        cost, errors = checker.check(self.g, corrupted, 2, claimed_cost=2)
        self.assertEqual(cost, 1)
        self.assertTrue(any("claimed cost" in e for e in errors))
        self.assertTrue(any("outside" in e for e in errors))

    def test_truncated_or_out_of_range_partitions(self):
        _, errors = checker.check(self.g, [0, 1, 0], 2, claimed_cost=0)
        self.assertTrue(errors)
        _, errors = checker.check(self.g, [0, 0, 0, 1, 1, 2], 2,
                                  claimed_cost=2)
        self.assertTrue(errors)

    def test_two_way_window_widens_narrow_windows(self):
        # W = 6: 45-55 is [ceil(2.7), floor(3.3)] = [3, 3], narrower than
        # two unit nodes, so it widens to [2, 4].
        self.assertEqual(checker.two_way_window(self.g, 0.45, 0.55), (2, 4))

    def test_kway_window(self):
        g = checker.parse_hgr("1 100\n1 2\n")
        # 100 / 4 = 25 -> [22, 28] with the upper bound rounded up.
        self.assertEqual(checker.kway_window(g, 4), (22, 28))

    def test_weighted_nodes(self):
        g = checker.parse_hgr("1 3 10\n1 2 3\n5\n1\n1\n")
        self.assertEqual(g.node_sizes, [5, 1, 1])
        self.assertEqual(g.net_costs, [1])

    def test_service_side_encoding(self):
        self.assertEqual(checker.decode_side("019az"), [0, 1, 9, 10, 35])


if __name__ == "__main__":
    unittest.main()
