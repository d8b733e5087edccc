// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "hypergraph/builder.h"
#include "hypergraph/generator.h"
#include "hypergraph/hypergraph.h"

namespace prop::testing {

/// Small planted-structure circuit for partitioner tests: `blocks` cliques
/// of `block_size` nodes (as 2-pin net rings plus one block-spanning net),
/// chained together by single 2-pin bridge nets.  The optimal bisection
/// cuts exactly one bridge net.
inline Hypergraph chain_of_blocks(int blocks, int block_size) {
  const NodeId n = static_cast<NodeId>(blocks * block_size);
  HypergraphBuilder b(n);
  b.set_name("chain_of_blocks");
  for (int k = 0; k < blocks; ++k) {
    const NodeId base = static_cast<NodeId>(k * block_size);
    std::vector<NodeId> all;
    for (int i = 0; i < block_size; ++i) {
      all.push_back(base + static_cast<NodeId>(i));
      b.add_net({base + static_cast<NodeId>(i),
                 base + static_cast<NodeId>((i + 1) % block_size)});
    }
    b.add_net(all);
    if (k + 1 < blocks) {
      b.add_net({static_cast<NodeId>(base + block_size - 1),
                 static_cast<NodeId>(base + block_size)});
    }
  }
  return std::move(b).build();
}

/// Medium random circuit for property tests.
inline Hypergraph small_random_circuit(std::uint64_t seed = 7,
                                       NodeId nodes = 200, NetId nets = 260,
                                       std::size_t pins = 800) {
  return generate_circuit({"small", nodes, nets, pins}, seed);
}

/// Asserts that `b` is `a` exactly: node and net counts, every net's pins
/// in order, every net cost and every node size.
inline void expect_same_graph(const Hypergraph& a, const Hypergraph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_nets(), b.num_nets());
  for (NetId n = 0; n < a.num_nets(); ++n) {
    const auto pa = a.pins_of(n);
    const auto pb = b.pins_of(n);
    EXPECT_TRUE(std::equal(pa.begin(), pa.end(), pb.begin(), pb.end()))
        << "pins of net " << n;
    EXPECT_EQ(a.net_cost(n), b.net_cost(n)) << "cost of net " << n;
  }
  for (NodeId u = 0; u < a.num_nodes(); ++u) {
    EXPECT_EQ(a.node_size(u), b.node_size(u)) << "size of node " << u;
  }
}

}  // namespace prop::testing
