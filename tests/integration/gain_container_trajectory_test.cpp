// Trajectory pins for the gain container behind PROP, FM-tree and LA.
//
// The container's order (gain, then join order: the newest of equal gains
// first) decides every move these engines make, so any change to it shows
// up here as a different partition or pass history.  Each case pins the
// final partition's FNV-1a hash and, per pass, (cut_after, moves_accepted,
// gain-container ops).  The golden strings were recorded with the AVL tree
// the engines used before the binary gain heap replaced it, and the heap
// reproduces them exactly.
//
// Cases: PROP at k = 2 (plain, and with audit/resync sweeps that re-key
// every free node), PROP at k = 4, ML-PROP (coarse levels have
// non-unit node sizes, so selection goes through max_if), FM-tree on
// weighted nets with non-unit node sizes, and LA-3 on non-unit node sizes.
// Further cases pin the paths those leave out: FM-bucket and LA-2 on unit
// costs and sizes (the containers' plain-max fast path), FM, LA-3 and PROP
// with audit sweeps every 32 moves, and one run each of FM, LA-2 and k = 4
// PROP cut short mid-pass by an injected cancellation (the interrupt and
// rollback path).  PROP at k = 2 on fractional net costs and at k = 4
// under the cut objective pin the cost-floor cut-off of the pass skeleton
// where its slack and its per-objective step matter.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/prop_partitioner.h"
#include "fm/fm_partitioner.h"
#include "hypergraph/builder.h"
#include "hypergraph/generator.h"
#include "kway/kway_prop_refiner.h"
#include "la/la_partitioner.h"
#include "multilevel/multilevel_driver.h"
#include "partition/kway_balance.h"
#include "runtime/run_context.h"
#include "util/rng.h"

namespace prop {
namespace {

template <typename Part>
std::uint64_t fnv1a(const std::vector<Part>& part) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const Part p : part) {
    h ^= static_cast<std::uint64_t>(p);
    h *= 1099511628211ULL;
  }
  return h;
}

template <typename Part>
std::string trajectory(const std::vector<Part>& part,
                       const RefineTelemetry& telemetry) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv1a(part)));
  std::string out = buf;
  for (const PassStats& s : telemetry.passes) {
    std::snprintf(buf, sizeof buf, " %.17g/%llu/%llu", s.cut_after,
                  static_cast<unsigned long long>(s.moves_accepted),
                  static_cast<unsigned long long>(s.ops.total()));
    out += buf;
  }
  return out;
}

std::string run_trajectory(Bipartitioner& algo, const Hypergraph& g,
                           const BalanceConstraint& balance,
                           std::uint64_t seed) {
  RefineTelemetry telemetry;
  algo.attach_telemetry(&telemetry);
  const PartitionResult r = algo.run(g, balance, seed);
  return trajectory(r.side, telemetry);
}

/// `base` with seeded net costs in {1, 1.5, ..., 4} and node sizes in
/// {1, 2, 3}: both tie-heavy and off the unit-size fast paths.
Hypergraph weighted_sized(const Hypergraph& base, std::uint64_t seed,
                          bool weight_nets) {
  Rng rng(seed);
  HypergraphBuilder b(base.num_nodes());
  for (NetId net = 0; net < base.num_nets(); ++net) {
    const double cost =
        weight_nets ? 1.0 + 0.5 * static_cast<double>(rng.bounded(7)) : 1.0;
    b.add_net(base.pins_of(net), cost);
  }
  for (NodeId u = 0; u < base.num_nodes(); ++u) {
    b.set_node_size(u, 1 + static_cast<std::int64_t>(rng.bounded(3)));
  }
  return std::move(b).build();
}

TEST(GainContainerTrajectory, PropTwoWay) {
  const Hypergraph g = generate_circuit({"traj2", 800, 840, 2800}, 3);
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  PropPartitioner plain;
  EXPECT_EQ(run_trajectory(plain, g, balance, 5),
            "7b19e7d18231f319 170/324/7033 132/190/7994 131/20/9650 "
            "124/231/9947 108/57/10073 106/4/10749 106/0/10814");
  PropConfig audited;
  audited.audit_interval = 64;
  audited.resync_interval = 64;
  PropPartitioner resynced(audited);
  EXPECT_EQ(run_trajectory(resynced, g, balance, 5),
            "e4a53f2e06e69dc4 150/335/10671 131/108/12591 129/782/13990 "
            "128/8/14148 128/0/14109");
}

TEST(GainContainerTrajectory, PropFourWay) {
  const Hypergraph g = generate_circuit({"traj4", 900, 940, 3200}, 4);
  const NodeId k = 4;
  const KWayBalanceWindow window =
      kway_part_window(g.total_node_size(), k, 0.1, kway_max_node_size(g));
  Rng rng(7);
  std::vector<NodeId> part(g.num_nodes());
  for (auto& p : part) p = static_cast<NodeId>(rng.bounded(k));
  RefineTelemetry telemetry;
  KWayPropConfig config;
  config.telemetry = &telemetry;
  kway_prop_refine(g, part, k, window, config);
  EXPECT_EQ(trajectory(part, telemetry),
            "b03cb14a3e688884 379/616/6991 331/360/8075 292/118/6896 "
            "286/28/6599 282/7/7601 282/0/7704");
}

/// `base` with seeded fractional net costs `step * (1 + j)`, j < 15, and
/// unit node sizes.
Hypergraph fractional_costs(const Hypergraph& base, std::uint64_t seed,
                            double step) {
  Rng rng(seed);
  HypergraphBuilder b(base.num_nodes());
  for (NetId net = 0; net < base.num_nets(); ++net) {
    b.add_net(base.pins_of(net),
              step * static_cast<double>(1 + rng.bounded(15)));
  }
  return std::move(b).build();
}

TEST(GainContainerTrajectory, PropTwoWayFractionalNetCosts) {
  const Hypergraph base = generate_circuit({"trajfrac", 800, 840, 2800}, 18);
  const BalanceConstraint balance = BalanceConstraint::forty_five(base);
  // Quarter steps sum exactly in any order; tenths carry rounding error
  // into the cut, the exact-gain prefix and the pass's cut floor.
  PropPartitioner quarters;
  EXPECT_EQ(run_trajectory(quarters, fractional_costs(base, 19, 0.25),
                           balance, 10),
            "af8e86b52438a49b 305/374/6520 270.75/152/7729 262.25/60/8028 "
            "262.25/0/8186");
  PropPartitioner tenths;
  EXPECT_EQ(run_trajectory(tenths, fractional_costs(base, 19, 0.1), balance,
                           10),
            "83dade779a68dbc5 118.00000000000016/392/6374 "
            "88.600000000000179/174/7999 80.100000000000207/75/9065 "
            "79.300000000000281/11/9930 78.600000000000406/24/10042 "
            "77.900000000000531/788/10626 77.600000000000549/798/10721 "
            "77.60000000000062/0/10626");
}

TEST(GainContainerTrajectory, PropFourWayCutObjective) {
  const Hypergraph g = generate_circuit({"traj4cut", 900, 940, 3200}, 20);
  const NodeId k = 4;
  const KWayBalanceWindow window =
      kway_part_window(g.total_node_size(), k, 0.1, kway_max_node_size(g));
  Rng rng(11);
  std::vector<NodeId> part(g.num_nodes());
  for (auto& p : part) p = static_cast<NodeId>(rng.bounded(k));
  RefineTelemetry telemetry;
  KWayPropConfig config;
  config.objective = KWayObjective::kCut;
  config.telemetry = &telemetry;
  kway_prop_refine(g, part, k, window, config);
  EXPECT_EQ(trajectory(part, telemetry),
            "333e31a580e235be 311/634/7817 251/271/7898 250/163/9622 "
            "226/147/9658 219/59/9901 218/3/9834 218/0/8841");
}

TEST(GainContainerTrajectory, MultilevelPropSizedCoarseLevels) {
  const Hypergraph g = generate_circuit(scaled_spec("trajml", 3000), 9);
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  MultilevelPartitioner ml;
  // The coarsest graph's initial FM runs come first, then the PROP
  // passes of every level, coarsest first.
  EXPECT_EQ(run_trajectory(ml, g, balance, 2),
            "5cff0a9ce459b49b 420/48/2604 356/20/2734 348/3/2818 "
            "338/71/2834 338/0/2786 400/31/2615 367/36/2805 334/6/2877 "
            "334/0/2830 338/39/2674 334/15/2756 334/0/2888 456/46/2532 "
            "456/0/2473 396/35/2603 366/25/2792 351/7/2690 351/0/2684 "
            "406/45/2541 405/88/2539 353/5/2809 353/0/2710 376/45/2646 "
            "334/16/2928 334/0/2786 391/53/2589 359/27/2810 334/5/2824 "
            "334/0/2948 366/52/2561 350/16/2669 349/5/2837 349/0/2691 "
            "395/51/2655 343/36/2847 334/16/2807 334/0/2948 334/0/2330 "
            "304/10/7818 304/0/8386 233/50/15122 233/0/19414 189/92/31600 "
            "189/0/40841");
}

TEST(GainContainerTrajectory, FmTreeWeightedNets) {
  const Hypergraph g = weighted_sized(
      generate_circuit({"trajfm", 700, 740, 2500}, 6), 8, true);
  ASSERT_FALSE(g.unit_net_costs());
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  FmPartitioner fm({FmStructure::kTree});
  EXPECT_EQ(run_trajectory(fm, g, balance, 3),
            "50a4235f3cd839e8 435.5/283/2911 409.5/119/2930 393/114/2929 "
            "393/0/2935");
}

TEST(GainContainerTrajectory, La3SizedNodes) {
  const Hypergraph g = weighted_sized(
      generate_circuit({"trajla", 600, 640, 2100}, 10), 12, false);
  ASSERT_FALSE(g.unit_node_sizes());
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  LaConfig config;
  config.lookahead = 3;
  LaPartitioner la(config);
  EXPECT_EQ(run_trajectory(la, g, balance, 4),
            "03e68a6e26068fab 149/294/2830 88/188/3355 80/34/3429 "
            "80/0/3187");
}

TEST(GainContainerTrajectory, FmBucketUnitCostsAndSizes) {
  const Hypergraph g = generate_circuit({"trajfmb", 700, 740, 2500}, 14);
  ASSERT_TRUE(g.unit_net_costs());
  ASSERT_TRUE(g.unit_node_sizes());
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  FmPartitioner fm;
  EXPECT_EQ(run_trajectory(fm, g, balance, 6),
            "c9ce8f26d48e8a8d 160/319/3111 109/199/3263 92/61/3380 "
            "87/37/3385 85/41/3400 84/691/3470 84/0/3469");
}

TEST(GainContainerTrajectory, La2UnitSizes) {
  const Hypergraph g = generate_circuit({"trajla2", 600, 640, 2100}, 15);
  ASSERT_TRUE(g.unit_node_sizes());
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  LaPartitioner la(LaConfig{2});
  EXPECT_EQ(run_trajectory(la, g, balance, 7),
            "a68a266300645a6a 161/267/2559 124/282/2793 90/85/3013 "
            "83/137/3143 72/57/3000 71/1/2950 71/0/2950");
}

/// Runs `algo` with telemetry and returns the trajectory plus, after a
/// '|', the number of audit sweeps of each pass.
std::string audited_trajectory(Bipartitioner& algo, const Hypergraph& g,
                               const BalanceConstraint& balance,
                               std::uint64_t seed) {
  RefineTelemetry telemetry;
  algo.attach_telemetry(&telemetry);
  const PartitionResult r = algo.run(g, balance, seed);
  std::string out = trajectory(r.side, telemetry) + " |";
  for (const PassStats& s : telemetry.passes) {
    out += " " + std::to_string(s.audits);
  }
  return out;
}

TEST(GainContainerTrajectory, AuditedEveryThirtyTwoMoves) {
  const Hypergraph g = generate_circuit({"trajaud", 500, 530, 1800}, 16);
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  FmConfig fm_config;
  fm_config.audit_interval = 32;
  FmPartitioner fm(fm_config);
  EXPECT_EQ(audited_trajectory(fm, g, balance, 8),
            "a8c6c5a8897a5f09 122/217/2056 110/76/2088 107/90/2149 "
            "99/114/2174 96/65/2195 95/38/2260 92/430/2241 90/2/2301 "
            "90/0/2252 | 15 15 15 15 15 15 15 15 15");
  LaConfig la_config;
  la_config.lookahead = 3;
  la_config.audit_interval = 32;
  LaPartitioner la(la_config);
  EXPECT_EQ(audited_trajectory(la, g, balance, 8),
            "5b46873e3ffc0761 116/213/2223 103/152/2248 90/97/2511 "
            "87/48/2518 85/34/2530 85/0/2382 | 15 15 15 15 15 15");
  PropConfig prop_config;
  prop_config.audit_interval = 32;
  PropPartitioner prop_algo(prop_config);
  EXPECT_EQ(audited_trajectory(prop_algo, g, balance, 8),
            "75aac5d17cfcc6c4 82/239/5181 66/42/6528 66/0/7586 | 10 14 15");
}

TEST(GainContainerTrajectory, AuditedPropMatchesUnaudited) {
  // The audits only read: the stale gains of the Sec. 3.4 update policy
  // are telemetry, not drift, so the run keeps every PROP move.
  const Hypergraph g = generate_circuit({"trajaud", 500, 530, 1800}, 16);
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  PropPartitioner plain;
  PropConfig config;
  config.audit_interval = 32;
  PropPartitioner audited(config);
  EXPECT_EQ(run_trajectory(audited, g, balance, 8),
            run_trajectory(plain, g, balance, 8));
}

/// A context whose injector cancels the run at the `poll`-th move-loop
/// poll.
struct CancelAt {
  CancelToken cancel;
  FaultInjector injector;
  RunContext context;

  explicit CancelAt(int poll)
      : injector("cancel-mid-pass@" + std::to_string(poll)) {
    context.cancel = &cancel;
    context.injector = &injector;
  }
};

TEST(GainContainerTrajectory, CancelledMidPass) {
  const Hypergraph g = generate_circuit({"trajcan", 500, 530, 1800}, 17);
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  {
    CancelAt at(650);
    FmPartitioner fm;
    fm.attach_context(&at.context);
    EXPECT_EQ(run_trajectory(fm, g, balance, 9),
              "61a021587a154bbf 124/234/2142 113/138/1018");
  }
  {
    CancelAt at(650);
    LaPartitioner la(LaConfig{2});
    la.attach_context(&at.context);
    EXPECT_EQ(run_trajectory(la, g, balance, 9),
              "019b3afc5c145ba9 114/219/1972 104/137/1075");
  }
  {
    CancelAt at(650);
    const NodeId k = 4;
    const KWayBalanceWindow window =
        kway_part_window(g.total_node_size(), k, 0.1, kway_max_node_size(g));
    Rng rng(9);
    std::vector<NodeId> part(g.num_nodes());
    for (auto& p : part) p = static_cast<NodeId>(rng.bounded(k));
    RefineTelemetry telemetry;
    KWayPropConfig config;
    config.telemetry = &telemetry;
    config.context = &at.context;
    const KWayPropOutcome out = kway_prop_refine(g, part, k, window, config);
    EXPECT_TRUE(out.interrupted);
    EXPECT_EQ(trajectory(part, telemetry),
              "3a3ad0a83aee2f81 263/320/4376 191/212/3667");
  }
}

}  // namespace
}  // namespace prop
