// One PROP pass engine for every k (core/prop_refiner.h): at k = 2 the
// KWayState instantiation, run with a symmetric window and the cut
// objective, must make exactly the moves of the Partition instantiation —
// same sides after every pass, same accepted gains, same PassStats
// counters — on random weighted hypergraphs, under the cached and shadow
// engines and with the audit/resync chain armed.
#include "core/prop_refiner.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/prop_partitioner.h"
#include "hypergraph/builder.h"
#include "kway/kway_prop_refiner.h"
#include "kway/kway_state.h"
#include "partition/initial.h"
#include "util/rng.h"

namespace prop {
namespace {

/// Random hypergraph with node sizes 1-3 (or all 1) and net costs in
/// quarter steps, so costs sum exactly in any order.
Hypergraph weighted_circuit(std::uint64_t seed, bool unit_sizes) {
  Rng rng(seed);
  const NodeId n = 120 + static_cast<NodeId>(rng.bounded(80));
  HypergraphBuilder b(n);
  for (NodeId u = 0; u < n; ++u) {
    if (!unit_sizes) b.set_node_size(u, 1 + static_cast<int>(rng.bounded(3)));
  }
  const int nets = static_cast<int>(n) + static_cast<int>(rng.bounded(n));
  for (int e = 0; e < nets; ++e) {
    std::vector<NodeId> pins;
    const int size = 2 + static_cast<int>(rng.bounded(4));
    for (int i = 0; i < size; ++i) {
      pins.push_back(static_cast<NodeId>(rng.bounded(n)));
    }
    b.add_net(pins, 0.25 * static_cast<double>(1 + rng.bounded(12)));
  }
  return std::move(b).build();
}

void expect_same_pass(const PassStats& a, const PassStats& b, int pass) {
  EXPECT_EQ(a.moves_attempted, b.moves_attempted) << "pass " << pass;
  EXPECT_EQ(a.moves_accepted, b.moves_accepted) << "pass " << pass;
  EXPECT_EQ(a.best_prefix_gain, b.best_prefix_gain) << "pass " << pass;
  EXPECT_EQ(a.ops.inserts, b.ops.inserts) << "pass " << pass;
  EXPECT_EQ(a.ops.erases, b.ops.erases) << "pass " << pass;
  EXPECT_EQ(a.ops.updates, b.ops.updates) << "pass " << pass;
  EXPECT_EQ(a.refresh_skips, b.refresh_skips) << "pass " << pass;
  EXPECT_EQ(a.audits, b.audits) << "pass " << pass;
  EXPECT_EQ(a.resyncs, b.resyncs) << "pass " << pass;
  EXPECT_EQ(a.max_gain_drift, b.max_gain_drift) << "pass " << pass;
}

TEST(PropRefiner, KWayStateAtK2ReproducesPartitionMoveForMove) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Hypergraph g = weighted_circuit(seed, /*unit_sizes=*/seed % 3 == 0);
    const std::int64_t total = g.total_node_size();
    const std::int64_t lo = total * 45 / 100;
    const BalanceConstraint balance(lo, total - lo, total);
    const KWayBalanceWindow window{lo, total - lo};
    Rng rng(seed);
    const std::vector<std::uint8_t> sides =
        random_balanced_sides(g, balance, rng);

    KWayPropConfig config;
    config.objective = KWayObjective::kCut;
    config.gain_engine = seed % 2 == 0 ? GainEngine::kShadow
                                       : GainEngine::kCached;
    if (seed % 4 == 1) {
      config.audit_interval = 7;
      config.resync_interval = 11;
    }

    Partition part(g, sides);
    KWayState state(g, std::vector<NodeId>(sides.begin(), sides.end()), 2);
    PropRefiner<Partition> two_way(part, {&balance}, config);
    PropRefiner<KWayState> k_way(state, {window, KWayObjective::kCut},
                                 config);
    for (int pass = 0; pass < 16; ++pass) {
      PassStats a;
      PassStats b;
      const double gained = two_way.run_pass(&a);
      EXPECT_EQ(gained, k_way.run_pass(&b)) << "seed " << seed;
      expect_same_pass(a, b, pass);
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        ASSERT_EQ(static_cast<NodeId>(part.side(u)), state.part(u))
            << "seed " << seed << " pass " << pass << " node " << u;
      }
      EXPECT_NEAR(part.cut_cost(), state.cut_cost(), 1e-9);
      if (gained <= PropRefiner<Partition>::kEps) break;
    }
  }
}

/// max_move_size is an exact upper bound of feasible: every feasible size
/// fits it, and when any size is feasible the bound itself is.
TEST(PropRefiner, MaxMoveSizeIsTheLargestFeasibleSize) {
  const Hypergraph g = weighted_circuit(3, /*unit_sizes=*/false);
  const std::int64_t total = g.total_node_size();
  Rng rng(3);
  for (int trial = 0; trial < 40; ++trial) {
    const std::int64_t lo = static_cast<std::int64_t>(rng.bounded(total / 2));
    const std::int64_t hi = lo + static_cast<std::int64_t>(rng.bounded(total));
    const BalanceConstraint balance(lo, hi, total);
    std::vector<std::uint8_t> sides(g.num_nodes());
    for (auto& s : sides) s = static_cast<std::uint8_t>(rng.bounded(2));
    const Partition part(g, sides);
    const PropMoveRules<Partition> two_way{&balance};
    const KWayState state(g, std::vector<NodeId>(sides.begin(), sides.end()),
                          2);
    const PropMoveRules<KWayState> k_way{{lo, hi}, KWayObjective::kCut};
    for (NodeId from = 0; from < 2; ++from) {
      const NodeId to = 1 - from;
      const std::int64_t bound2 = two_way.max_move_size(part, from, to);
      const std::int64_t boundk = k_way.max_move_size(state, from, to);
      bool any2 = false;
      bool anyk = false;
      for (std::int64_t size = 1; size <= total; ++size) {
        if (two_way.feasible(part, from, to, size)) {
          EXPECT_LE(size, bound2);
          any2 = true;
        }
        if (k_way.feasible(state, from, to, size)) {
          EXPECT_LE(size, boundk);
          anyk = true;
        }
      }
      if (any2) {
        EXPECT_TRUE(two_way.feasible(part, from, to, bound2));
      }
      if (anyk) {
        EXPECT_TRUE(k_way.feasible(state, from, to, boundk));
      }
    }
  }
}

/// The smallest-free-size skip in best_move must not skip a part whose
/// smallest free node is exactly as large as the bound: here that node is
/// the only one that may move, and moving it uncuts both nets.
TEST(PropRefiner, MovesANodeOfExactlyTheBound) {
  {
    // Side 0 = {0 (size 3)}, side 1 = {1..4}.  Window [0, 3] on side 0:
    // node 0 may leave (3 - 3 >= 0), nothing may join side 0 (3 + 1 > 3).
    HypergraphBuilder b(5);
    b.set_node_size(0, 3);
    b.add_net({0, 1});
    b.add_net({0, 2});
    b.add_net({3, 4});
    const Hypergraph g = std::move(b).build();
    const BalanceConstraint balance(0, 3, g.total_node_size());
    const std::vector<std::uint8_t> sides{0, 1, 1, 1, 1};
    Partition part(g, sides);
    ASSERT_EQ(PropMoveRules<Partition>{&balance}.max_move_size(part, 0, 1),
              g.node_size(0));
    const PropConfig config;
    PropRefiner<Partition> refiner(part, {&balance}, config);
    EXPECT_EQ(refiner.run_pass(nullptr), 2.0);
    EXPECT_EQ(part.side(0), 1);
    EXPECT_EQ(part.cut_cost(), 0.0);
  }
  {
    // k = 3, window [2, 5].  Parts {0, 1} (sizes 3, 3), {2, 3}, {4 (3)}:
    // nodes 2-4 may not leave (lo), and from part 0 only a size-3 move to
    // part 1 fits (5 - 2 = 3).
    HypergraphBuilder b(5);
    b.set_node_size(0, 3);
    b.set_node_size(1, 3);
    b.set_node_size(4, 3);
    b.add_net({0, 2});
    b.add_net({0, 3});
    const Hypergraph g = std::move(b).build();
    const KWayBalanceWindow window{2, 5};
    KWayState state(g, {0, 0, 1, 1, 2}, 3);
    const PropMoveRules<KWayState> rules{window, KWayObjective::kCut};
    ASSERT_EQ(rules.max_move_size(state, 0, 1), g.node_size(0));
    const KWayPropConfig config;
    PropRefiner<KWayState> refiner(state, rules, config);
    EXPECT_EQ(refiner.run_pass(nullptr), 2.0);
    EXPECT_EQ(state.part(0), 1u);
    EXPECT_EQ(state.cut_cost(), 0.0);
  }
}

}  // namespace
}  // namespace prop
