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
// rollback path).
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
            "7b19e7d18231f319 170/324/7787 132/190/8486 131/20/9650 "
            "124/231/9979 108/57/10279 106/4/10754 106/0/10814");
  PropConfig audited;
  audited.audit_interval = 64;
  audited.resync_interval = 64;
  PropPartitioner resynced(audited);
  EXPECT_EQ(run_trajectory(resynced, g, balance, 5),
            "030d439d5c02fdd4 190/256/9725 149/119/3856 146/72/3788 "
            "146/0/3896");
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
            "b03cb14a3e688884 379/616/7368 331/360/8979 292/118/6896 "
            "286/28/6612 282/7/9502 282/0/8774");
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
            "304/10/8077 304/0/8386 233/50/16173 233/0/19414 189/92/36241 "
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
  // Without resyncs the audits see the stale gains of the Sec. 3.4 update
  // policy as drift beyond kDriftHardBound, so the drift chain gives up
  // at the first pass's fourth audit and FM finishes the run.
  EXPECT_EQ(run_trajectory(prop_algo, g, balance, 8),
            "c5c486d334e32c85 153/128/4785 94/122/2323 85/61/2368 "
            "84/2/2388 83/491/2361 83/0/2375");
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
              "9abb26fff61d165a 263/320/4476 193/172/3237");
  }
}

}  // namespace
}  // namespace prop
