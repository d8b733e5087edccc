// Multilevel V-cycle driver: clustering invariants, hierarchy facts,
// partition validity under both refiners, determinism (including the
// run_many thread-count contract), and deadline robustness.  The hierarchy,
// determinism and cancellation cases also run the k-way V-cycle at k = 4
// and k = 8.
#include "multilevel/multilevel_driver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "hypergraph/mcnc_suite.h"
#include "multilevel/multilevel_kway.h"
#include "partition/kway_balance.h"
#include "partition/runner.h"
#include "partition/validate.h"
#include "runtime/run_context.h"
#include "testutil.h"

namespace prop {
namespace {

MultilevelKWayConfig kway_config(NodeId k) {
  MultilevelKWayConfig config;
  config.k = k;
  return config;
}

/// Every part of a k-way `side` vector lies inside the shared window.
void expect_in_kway_window(const Hypergraph& g, const MultilevelKWayConfig& c,
                           const std::vector<std::uint8_t>& side) {
  const KWayBalanceWindow window = kway_part_window(
      g.total_node_size(), c.k, c.tolerance, kway_max_node_size(g));
  std::vector<std::int64_t> size(c.k, 0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) size[side[u]] += g.node_size(u);
  for (NodeId p = 0; p < c.k; ++p) {
    EXPECT_TRUE(window.contains(size[p]))
        << "part " << p << " size " << size[p] << " outside [" << window.lo
        << ", " << window.hi << "]";
  }
}

TEST(AttractionClusters, DenseCompleteAndCoarsening) {
  const Hypergraph g = testing::small_random_circuit(21);
  Rng rng(5);
  NodeId num_clusters = 0;
  const std::vector<NodeId> cluster_of = attraction_clusters(
      g, rng, g.total_node_size() / 8, 64, num_clusters);
  ASSERT_EQ(cluster_of.size(), g.num_nodes());
  ASSERT_GT(num_clusters, 0u);
  std::vector<int> members(num_clusters, 0);
  for (const NodeId c : cluster_of) {
    ASSERT_LT(c, num_clusters);
    ++members[c];
  }
  // Dense id space: contract() sees no phantom clusters from this caller.
  for (const int m : members) EXPECT_GT(m, 0);
  // And it actually coarsens a connected circuit.
  EXPECT_LT(num_clusters, g.num_nodes());
}

TEST(AttractionClusters, RespectsWeightCap) {
  const Hypergraph g = testing::small_random_circuit(23);
  Rng rng(6);
  const std::int64_t cap = 4;  // unit node sizes: every node fits alone
  NodeId num_clusters = 0;
  const std::vector<NodeId> cluster_of =
      attraction_clusters(g, rng, cap, 64, num_clusters);
  std::vector<std::int64_t> weight(num_clusters, 0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    weight[cluster_of[u]] += g.node_size(u);
  }
  for (const std::int64_t w : weight) EXPECT_LE(w, cap);
}

TEST(AttractionClusters, DeterministicInRngSeed) {
  const Hypergraph g = testing::small_random_circuit(27);
  NodeId n1 = 0;
  NodeId n2 = 0;
  Rng a(99);
  Rng b(99);
  const auto c1 = attraction_clusters(g, a, 20, 64, n1);
  const auto c2 = attraction_clusters(g, b, 20, 64, n2);
  EXPECT_EQ(n1, n2);
  EXPECT_EQ(c1, c2);
}

TEST(Multilevel, BuildsHierarchyAndValidPartition) {
  const Hypergraph g = testing::small_random_circuit(25, 400, 520, 1600);
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  MultilevelConfig config;
  config.coarsest_max_nodes = 50;
  const MultilevelResult r = multilevel_partition(g, balance, 3, config);
  EXPECT_GE(r.levels, 1);
  EXPECT_LE(r.coarsest_nodes, config.coarsest_max_nodes);
  EXPECT_FALSE(r.interrupted);
  const ValidationReport report = validate_result(g, balance, r.part);
  EXPECT_TRUE(report.ok) << report.message;

  for (const NodeId k : {4u, 8u}) {
    SCOPED_TRACE("k = " + std::to_string(k));
    MultilevelKWayConfig kc = kway_config(k);
    kc.coarsest_max_nodes = 50;
    const MultilevelKWayResult kr = multilevel_kway_partition(g, 3, kc);
    EXPECT_GE(kr.levels, 1);
    EXPECT_LE(kr.coarsest_nodes, std::max(kc.coarsest_max_nodes, k));
    EXPECT_FALSE(kr.interrupted);
    const ValidationReport kreport = validate_kway_result(
        g, k, kc.objective, kway_partition_result(kr, kc.objective));
    EXPECT_TRUE(kreport.ok) << kreport.message;
  }
}

TEST(Multilevel, KWayRejectsKOutsideTwoToNodeCount) {
  // 24 nodes: below coarsest_max_nodes, so the V-cycle runs flat and k = 1
  // would otherwise reach the pipeline without any level refusing it.
  const Hypergraph g = testing::chain_of_blocks(4, 6);
  for (const NodeId k : {0u, 1u, 25u, 257u}) {
    EXPECT_THROW(multilevel_kway_partition(g, 1, kway_config(k)),
                 std::invalid_argument)
        << "k = " << k;
  }
  EXPECT_NO_THROW(multilevel_kway_partition(g, 1, kway_config(24)));
}

TEST(Multilevel, RunsFlatWhenAlreadySmall) {
  const Hypergraph g = testing::chain_of_blocks(4, 6);  // 24 nodes < 200
  const BalanceConstraint balance = BalanceConstraint::fifty_fifty(g);
  const MultilevelResult r = multilevel_partition(g, balance, 1);
  EXPECT_EQ(r.levels, 0);
  EXPECT_EQ(r.coarsest_nodes, g.num_nodes());
  EXPECT_TRUE(validate_result(g, balance, r.part).ok);
}

TEST(Multilevel, RecoversPlantedChainStructure) {
  const Hypergraph g = testing::chain_of_blocks(16, 16);  // optimal cut = 1
  const BalanceConstraint balance = BalanceConstraint::fifty_fifty(g);
  MultilevelConfig config;
  config.coarsest_max_nodes = 32;
  const MultilevelResult r = multilevel_partition(g, balance, 2, config);
  EXPECT_LE(r.part.cut_cost, 2.0);
  EXPECT_TRUE(validate_result(g, balance, r.part).ok);
}

TEST(Multilevel, BothRefinersProduceValidPartitions) {
  const Hypergraph g = testing::small_random_circuit(29, 300, 390, 1200);
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  for (const MlRefiner refiner : {MlRefiner::kProp, MlRefiner::kFm}) {
    MultilevelConfig config;
    config.refiner = refiner;
    config.coarsest_max_nodes = 40;
    MultilevelPartitioner algo(config);
    const PartitionResult r = algo.run(g, balance, 7);
    const ValidationReport report = validate_result(g, balance, r);
    EXPECT_TRUE(report.ok) << algo.name() << ": " << report.message;
  }
}

TEST(Multilevel, DeterministicInSeedAndUnderClone) {
  const Hypergraph g = testing::small_random_circuit(31, 300, 390, 1200);
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  MultilevelPartitioner algo;
  const PartitionResult a = algo.run(g, balance, 5);
  const PartitionResult b = algo.run(g, balance, 5);
  EXPECT_EQ(a.side, b.side);
  EXPECT_EQ(a.cut_cost, b.cut_cost);
  const std::unique_ptr<Bipartitioner> copy = algo.clone();
  const PartitionResult c = copy->run(g, balance, 5);
  EXPECT_EQ(a.side, c.side);

  for (const NodeId k : {4u, 8u}) {
    SCOPED_TRACE("k = " + std::to_string(k));
    MultilevelKWayPartitioner kalgo(kway_config(k));
    const PartitionResult ka = kalgo.run(g, balance, 5);
    const PartitionResult kb = kalgo.run(g, balance, 5);
    EXPECT_EQ(ka.side, kb.side);
    EXPECT_EQ(ka.cut_cost, kb.cut_cost);
    const std::unique_ptr<Bipartitioner> kcopy = kalgo.clone();
    const PartitionResult kc = kcopy->run(g, balance, 5);
    EXPECT_EQ(ka.side, kc.side);
    const ValidationReport report = kalgo.validate(g, balance, ka);
    EXPECT_TRUE(report.ok) << report.message;
  }
}

TEST(Multilevel, RunManyStatsIdenticalAcrossThreadCounts) {
  const Hypergraph g = testing::small_random_circuit(33, 300, 390, 1200);
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  MultilevelPartitioner algo;
  RunnerOptions sequential;
  sequential.collect_telemetry = true;
  sequential.threads = 0;
  RunnerOptions parallel = sequential;
  parallel.threads = 3;
  const MultiRunResult a = run_many(algo, g, balance, 4, 9, sequential);
  const MultiRunResult b = run_many(algo, g, balance, 4, 9, parallel);
  StatsJsonOptions json;
  json.include_timing = false;
  std::ostringstream sa;
  std::ostringstream sb;
  write_stats_json(sa, g.name(), algo.name(), a, json);
  write_stats_json(sb, g.name(), algo.name(), b, json);
  EXPECT_EQ(sa.str(), sb.str());
}

TEST(Multilevel, ExpiredDeadlineStillReturnsValidBalancedPartition) {
  const Hypergraph g = testing::small_random_circuit(35, 400, 520, 1600);
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  CancelToken cancel((Deadline::after_ms(0.0)));
  RunContext context;
  context.cancel = &cancel;
  MultilevelConfig config;
  config.coarsest_max_nodes = 50;
  MultilevelPartitioner algo(config);
  algo.attach_context(&context);
  const MultilevelResult r =
      multilevel_partition(g, balance, 4, algo.config());
  EXPECT_TRUE(r.interrupted);
  const ValidationReport report = validate_result(g, balance, r.part);
  EXPECT_TRUE(report.ok) << report.message;
}

TEST(Multilevel, InjectedCancellationViaRunChecked) {
  const Hypergraph g = testing::small_random_circuit(37, 300, 390, 1200);
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  CancelToken cancel{Deadline::never()};
  FaultInjector injector("cancel-mid-pass@40");
  RunContext context;
  context.cancel = &cancel;
  context.injector = &injector;
  MultilevelConfig config;
  config.coarsest_max_nodes = 40;
  MultilevelPartitioner algo(config);
  const RunOutcome outcome = run_checked(algo, g, balance, 11, &context);
  ASSERT_TRUE(outcome.has_result());
  EXPECT_EQ(outcome.status.code, StatusCode::kInjectedFault);
  const ValidationReport report = validate_result(g, balance, outcome.result);
  EXPECT_TRUE(report.ok) << report.message;

  // The k-way V-cycle: a cancellation before the last level still legalizes
  // every projected level, so the flat parts fit the k-way window.
  const Hypergraph p1 = make_mcnc_circuit("p1");
  const BalanceConstraint p1_balance = BalanceConstraint::forty_five(p1);
  struct KWayCase {
    NodeId k;
    const char* spec;
  };
  for (const KWayCase& c : {KWayCase{4, "cancel-mid-pass@40"},
                            KWayCase{8, "cancel-mid-pass@1"}}) {
    SCOPED_TRACE(std::string("k = ") + std::to_string(c.k) + ", " + c.spec);
    CancelToken kcancel{Deadline::never()};
    FaultInjector kinjector(c.spec);
    RunContext kcontext;
    kcontext.cancel = &kcancel;
    kcontext.injector = &kinjector;
    MultilevelKWayPartitioner kalgo(kway_config(c.k));
    const RunOutcome kout = run_checked(kalgo, p1, p1_balance, 11, &kcontext);
    ASSERT_TRUE(kout.has_result());
    EXPECT_EQ(kout.status.code, StatusCode::kInjectedFault);
    const ValidationReport kreport =
        kalgo.validate(p1, p1_balance, kout.result);
    EXPECT_TRUE(kreport.ok) << kreport.message;
    expect_in_kway_window(p1, kalgo.config(), kout.result.side);
  }
}

}  // namespace
}  // namespace prop
