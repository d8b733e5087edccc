#include "hypergraph/contraction.h"

#include <gtest/gtest.h>

#include <numeric>

#include "hypergraph/builder.h"
#include "partition/partition.h"
#include "testutil.h"
#include "util/rng.h"

namespace prop {
namespace {

Hypergraph sample() {
  HypergraphBuilder b(6);
  b.add_net({0, 1});     // inside cluster 0
  b.add_net({2, 3});     // inside cluster 1
  b.add_net({1, 2});     // cluster 0 - cluster 1
  b.add_net({3, 4, 5});  // cluster 1 - cluster 2
  b.add_net({0, 5});     // cluster 0 - cluster 2
  return std::move(b).build();
}

TEST(Contraction, DropsInternalNets) {
  const std::vector<NodeId> clusters = {0, 0, 1, 1, 2, 2};
  const ContractionResult r = contract(sample(), clusters, 3);
  EXPECT_EQ(r.coarse.num_nodes(), 3u);
  // Nets 0 and 1 disappear; nets 2, 3, 4 survive as 2-pin cluster nets.
  EXPECT_EQ(r.coarse.num_nets(), 3u);
}

TEST(Contraction, AccumulatesNodeSizes) {
  const std::vector<NodeId> clusters = {0, 0, 1, 1, 2, 2};
  const ContractionResult r = contract(sample(), clusters, 3);
  for (NodeId c = 0; c < 3; ++c) EXPECT_EQ(r.coarse.node_size(c), 2);
  EXPECT_EQ(r.coarse.total_node_size(), 6);
}

TEST(Contraction, MergesParallelNetsSummingCost) {
  HypergraphBuilder b(4);
  b.add_net({0, 2});
  b.add_net({1, 3});
  b.add_net({1, 2});
  const Hypergraph g = std::move(b).build();
  // Clusters {0,1} and {2,3}: all three nets become the same coarse net.
  const ContractionResult r = contract(g, {0, 0, 1, 1}, 2);
  ASSERT_EQ(r.coarse.num_nets(), 1u);
  EXPECT_DOUBLE_EQ(r.coarse.net_cost(0), 3.0);
}

TEST(Contraction, CoarseCutEqualsFlatCut) {
  const Hypergraph g = sample();
  const std::vector<NodeId> clusters = {0, 0, 1, 1, 2, 2};
  const ContractionResult r = contract(g, clusters, 3);

  // Coarse partition: clusters {0} vs {1, 2}.
  const std::vector<int> coarse_side = {0, 1, 1};
  const std::vector<int> flat_side = project_partition(r.fine_to_coarse, coarse_side);

  std::vector<std::uint8_t> coarse_u8(coarse_side.begin(), coarse_side.end());
  std::vector<std::uint8_t> flat_u8(flat_side.begin(), flat_side.end());
  const Partition coarse_part(r.coarse, coarse_u8);
  const Partition flat_part(g, flat_u8);
  EXPECT_DOUBLE_EQ(coarse_part.cut_cost(), flat_part.cut_cost());

  // k-way part ids project the same way.
  const std::vector<NodeId> coarse_parts = {2, 0, 1};
  EXPECT_EQ(project_partition(r.fine_to_coarse, coarse_parts),
            (std::vector<NodeId>{2, 2, 0, 0, 1, 1}));
}

TEST(Contraction, CompactsEmptyClusters) {
  // Only ids 0, 2, 4 of a 5-cluster id space have members.  The pre-fix
  // code kept the phantom ids as size-1 coarse nodes (a max(size, 1)
  // clamp), inflating the coarse total from 6 to 8 and skewing every
  // fraction-mapped balance window computed on the coarse graph.
  const std::vector<NodeId> clusters = {0, 0, 2, 2, 4, 4};
  const ContractionResult r = contract(sample(), clusters, 5);
  EXPECT_EQ(r.coarse.num_nodes(), 3u);
  EXPECT_EQ(r.coarse.total_node_size(), 6);
  // Compaction preserves cluster-id order: 0 -> 0, 2 -> 1, 4 -> 2.
  EXPECT_EQ(r.fine_to_coarse[0], 0u);
  EXPECT_EQ(r.fine_to_coarse[2], 1u);
  EXPECT_EQ(r.fine_to_coarse[4], 2u);
  for (NodeId u = 0; u < 6; ++u) EXPECT_LT(r.fine_to_coarse[u], 3u);
}

TEST(Contraction, SingletonClustersRoundTrip) {
  const Hypergraph g = sample();
  std::vector<NodeId> identity(g.num_nodes());
  std::iota(identity.begin(), identity.end(), NodeId{0});
  const ContractionResult r =
      contract(g, identity, static_cast<NodeId>(g.num_nodes()));
  EXPECT_EQ(r.coarse.num_nodes(), g.num_nodes());
  EXPECT_EQ(r.coarse.num_nets(), g.num_nets());
  EXPECT_EQ(r.coarse.total_node_size(), g.total_node_size());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(r.fine_to_coarse[u], u);
    EXPECT_EQ(r.coarse.node_size(u), g.node_size(u));
  }
}

TEST(Contraction, WeightedNetsMergePreservingCut) {
  HypergraphBuilder b(4);
  b.add_net({0, 2}, 2.5);
  b.add_net({1, 3}, 1.5);
  b.add_net({0, 1}, 4.0);  // internal to cluster 0: dropped
  const Hypergraph g = std::move(b).build();
  const ContractionResult r = contract(g, {0, 0, 1, 1}, 2);
  ASSERT_EQ(r.coarse.num_nets(), 1u);
  EXPECT_DOUBLE_EQ(r.coarse.net_cost(0), 4.0);

  const std::vector<std::uint8_t> coarse_side = {0, 1};
  const Partition coarse_part(r.coarse, coarse_side);
  const Partition flat_part(
      g, project_partition(r.fine_to_coarse, coarse_side));
  EXPECT_DOUBLE_EQ(coarse_part.cut_cost(), 4.0);
  EXPECT_DOUBLE_EQ(flat_part.cut_cost(), 4.0);
}

TEST(Contraction, RandomClusteringPreservesCutAndTotalSize) {
  const Hypergraph g = testing::small_random_circuit(17);
  Rng rng(123);
  for (int trial = 0; trial < 5; ++trial) {
    // Random cluster ids over a sparse id space: some ids stay empty, so
    // every trial also exercises compaction.
    const NodeId num_clusters = static_cast<NodeId>(40 + 15 * trial);
    std::vector<NodeId> clusters(g.num_nodes());
    for (auto& c : clusters) {
      c = static_cast<NodeId>(rng.bounded(num_clusters));
    }
    const ContractionResult r = contract(g, clusters, num_clusters);
    EXPECT_EQ(r.coarse.total_node_size(), g.total_node_size());
    ASSERT_EQ(r.fine_to_coarse.size(), g.num_nodes());
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      ASSERT_LT(r.fine_to_coarse[u], r.coarse.num_nodes());
    }

    std::vector<std::uint8_t> coarse_side(r.coarse.num_nodes());
    for (auto& s : coarse_side) s = rng.chance(0.5) ? 1 : 0;
    const Partition coarse_part(r.coarse, coarse_side);
    const Partition flat_part(
        g, project_partition(r.fine_to_coarse, coarse_side));
    EXPECT_DOUBLE_EQ(coarse_part.cut_cost(), flat_part.cut_cost());
  }
}

TEST(Contraction, RejectsBadInput) {
  const Hypergraph g = sample();
  EXPECT_THROW(contract(g, {0, 0, 1}, 2), std::invalid_argument);
  EXPECT_THROW(contract(g, {0, 0, 1, 1, 2, 5}, 3), std::invalid_argument);
}

}  // namespace
}  // namespace prop
