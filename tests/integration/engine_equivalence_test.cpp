// Engine-equivalence contract of the cached-product gain engine (DESIGN.md
// Sec. 4f): the cached engine must not change *what PROP computes*, only
// how fast it computes it.
//
// Exact trajectory equality is asserted through kShadow: a shadow run
// answers every gain query via the scratch code path (so its decisions are
// move-for-move those of a kScratch run) while maintaining the product
// cache and cross-checking it at every query.  Shadow == scratch on final
// sides and cut, with no cross-check throw, is therefore the statement
// "the cache stays within its audit tolerance through entire real runs on
// the reproduction circuits" — at k = 2 and, through the same pass engine,
// at k = 4.  The cached *fast path* is compared on
// solution quality (its ulp-level differences feed back through the
// probability model chaotically, so per-run equality is not a meaningful
// contract — see DESIGN.md), and its PR 3 determinism contract (identical
// results for every --threads value) is re-asserted engine-specifically.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/prop_partitioner.h"
#include "hypergraph/mcnc_suite.h"
#include "kway/kway_prop_refiner.h"
#include "partition/kway_balance.h"
#include "partition/runner.h"
#include "partition/validate.h"
#include "util/rng.h"

namespace prop {
namespace {

PropConfig config_for(GainEngine engine) {
  PropConfig config;
  config.gain_engine = engine;
  return config;
}

TEST(EngineEquivalence, ShadowReproducesScratchRunsExactly) {
  const std::vector<std::string> circuits = {"balu", "bm1", "p1", "t3"};
  for (const auto& name : circuits) {
    const Hypergraph g = make_mcnc_circuit(name);
    for (const bool fifty : {true, false}) {
      const BalanceConstraint balance = fifty
                                            ? BalanceConstraint::fifty_fifty(g)
                                            : BalanceConstraint::forty_five(g);
      for (const std::uint64_t seed : {3ULL, 19ULL}) {
        PropPartitioner scratch(config_for(GainEngine::kScratch));
        PropPartitioner shadow(config_for(GainEngine::kShadow));
        const PartitionResult a = scratch.run(g, balance, seed);
        // Any cache/scratch disagreement beyond kProductAuditTol inside the
        // shadow run throws std::logic_error out of run().
        const PartitionResult b = shadow.run(g, balance, seed);
        ASSERT_TRUE(a.valid());
        ASSERT_TRUE(b.valid());
        EXPECT_EQ(a.cut_cost, b.cut_cost)
            << name << " seed " << seed << (fifty ? " 50-50" : " 45-55");
        EXPECT_EQ(a.side, b.side)
            << name << " seed " << seed << (fifty ? " 50-50" : " 45-55");
        EXPECT_EQ(a.passes, b.passes) << name << " seed " << seed;
      }
    }
    // k = 4: the same engine on KWayState, from a random start.
    const NodeId k = 4;
    const KWayBalanceWindow window = kway_part_window(
        g.total_node_size(), k, 0.1, kway_max_node_size(g));
    for (const std::uint64_t seed : {3ULL, 19ULL}) {
      Rng rng(seed);
      std::vector<NodeId> start(g.num_nodes());
      for (auto& p : start) p = static_cast<NodeId>(rng.bounded(k));
      std::vector<NodeId> a = start;
      std::vector<NodeId> b = start;
      KWayPropConfig config;
      config.gain_engine = GainEngine::kScratch;
      const KWayPropOutcome oa = kway_prop_refine(g, a, k, window, config);
      config.gain_engine = GainEngine::kShadow;
      const KWayPropOutcome ob = kway_prop_refine(g, b, k, window, config);
      EXPECT_EQ(oa.connectivity_cost, ob.connectivity_cost)
          << name << " k=4 seed " << seed;
      EXPECT_EQ(a, b) << name << " k=4 seed " << seed;
      EXPECT_EQ(oa.passes, ob.passes) << name << " k=4 seed " << seed;
    }
  }
}

TEST(EngineEquivalence, CachedMatchesScratchSolutionQuality) {
  // The fast path makes its own (equally valid) tie-breaks, so compare
  // best-of-N quality rather than per-run trajectories: over a multi-start
  // sweep the two engines must land within a few percent of each other.
  const std::vector<std::string> circuits = {"balu", "struct", "t3"};
  constexpr int kRuns = 8;
  for (const auto& name : circuits) {
    const Hypergraph g = make_mcnc_circuit(name);
    const BalanceConstraint balance = BalanceConstraint::forty_five(g);
    PropPartitioner cached(config_for(GainEngine::kCached));
    PropPartitioner scratch(config_for(GainEngine::kScratch));
    const MultiRunResult rc = run_many(cached, g, balance, kRuns, 5);
    const MultiRunResult rs = run_many(scratch, g, balance, kRuns, 5);
    ASSERT_TRUE(rc.best.valid());
    ASSERT_TRUE(rs.best.valid());
    const ValidationReport report = validate_result(g, balance, rc.best);
    EXPECT_TRUE(report.ok) << name << ": " << report.message;
    const double larger =
        rc.best.cut_cost > rs.best.cut_cost ? rc.best.cut_cost
                                            : rs.best.cut_cost;
    EXPECT_LE(rc.best.cut_cost, rs.best.cut_cost + 0.15 * larger + 2.0)
        << name << ": cached " << rc.best.cut_cost << " vs scratch "
        << rs.best.cut_cost;
  }
}

TEST(EngineEquivalence, CachedEngineDeterministicAcrossThreadCounts) {
  // PR 3 contract, re-pinned for the cached engine: run_many produces the
  // identical cut vector and best seed at every worker-thread count.
  const Hypergraph g = make_mcnc_circuit("struct");
  const BalanceConstraint balance = BalanceConstraint::forty_five(g);
  PropPartitioner cached(config_for(GainEngine::kCached));
  RunnerOptions sequential;
  sequential.threads = 0;
  const MultiRunResult reference =
      run_many(cached, g, balance, 6, 9, sequential);
  for (const int threads : {1, 2, 4}) {
    RunnerOptions options;
    options.threads = threads;
    const MultiRunResult r = run_many(cached, g, balance, 6, 9, options);
    EXPECT_EQ(r.cuts, reference.cuts) << "threads=" << threads;
    EXPECT_EQ(r.best_seed, reference.best_seed) << "threads=" << threads;
    EXPECT_EQ(r.best.cut_cost, reference.best.cut_cost)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace prop
