// Fiduccia–Mattheyses iterative-improvement bipartitioner.
//
// Two interchangeable gain containers, matching the paper's Table 4
// comparison:
//   * kBucket — the classic O(1) bucket array (requires unit net costs);
//   * kTree   — the gain heap (datastruct/gain_heap.h), needed for weighted
//               nets and shared with PROP.
//
// A pass virtually moves every node (highest-gain feasible node first,
// lock after move, classic neighbor updates), then rolls back to the
// maximum-prefix-gain point; passes repeat until no positive improvement
// (paper Sec. 2).  The pass loop is the shared skeleton
// (partition/pass_engine.h); fm_partitioner.cpp holds only the FM gain
// policy: the two containers, the Eqn. 1 gains and their delta updates.
#pragma once

#include <cstdint>
#include <string>

#include "partition/iterative_partitioner.h"
#include "partition/partition.h"
#include "runtime/run_context.h"
#include "telemetry/telemetry.h"

namespace prop {

enum class FmStructure { kBucket, kTree };

struct FmConfig {
  FmStructure structure = FmStructure::kBucket;
  /// Safety bound; the paper observes convergence in 2-4 passes.
  int max_passes = 64;

  /// Opt-in per-pass trajectory recording; null records nothing.
  RefineTelemetry* telemetry = nullptr;

  /// Optional runtime context: the move loop polls for deadline expiry /
  /// injected cancellation and stops mid-pass, rolling back to the best
  /// prefix as usual (the partition stays valid).  Null = inert.
  const RunContext* context = nullptr;

  /// Debug auditor cadence: every `audit_interval` moves the pass
  /// recomputes gains and cut cost from scratch and throws
  /// std::logic_error on a mismatch beyond `audit_tolerance`.  0 = off.
  int audit_interval = 0;
  double audit_tolerance = 1e-6;
};

/// Improves `part` in place until a pass yields no gain.  Deterministic in
/// the partition's state (selection ties are broken LIFO).
RefineOutcome fm_refine(Partition& part, const BalanceConstraint& balance,
                        const FmConfig& config = {});

class FmPartitioner final
    : public IterativePartitioner<FmPartitioner, FmConfig, fm_refine> {
 public:
  explicit FmPartitioner(FmConfig config = {}) : IterativePartitioner(config) {}

  std::string name() const override {
    return config_.structure == FmStructure::kBucket ? "FM-bucket" : "FM-tree";
  }
};

}  // namespace prop
