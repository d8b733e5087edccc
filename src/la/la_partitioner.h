// LA-k bipartitioner: FM-style passes selecting by lexicographic lookahead
// gain vector (paper Sec. 2).  Gain vectors live in a gain heap
// (datastruct/gain_heap.h), avoiding the Theta(p^k) bucket memory blow-up
// the paper criticizes.  The pass loop is the shared skeleton
// (partition/pass_engine.h); la_partitioner.cpp holds only the LA-k gain
// policy: the heaps, the gain vectors and their per-net delta updates.
#pragma once

#include <cstdint>
#include <string>

#include "partition/iterative_partitioner.h"
#include "partition/partition.h"
#include "runtime/run_context.h"
#include "telemetry/telemetry.h"

namespace prop {

struct LaConfig {
  /// Lookahead depth k; the paper reports k = 2..4 as useful.
  int lookahead = 2;
  int max_passes = 64;

  /// Opt-in per-pass trajectory recording; null records nothing.
  RefineTelemetry* telemetry = nullptr;

  /// Optional runtime context: the move loop polls for deadline expiry /
  /// injected cancellation and stops mid-pass, rolling back to the best
  /// prefix as usual (the partition stays valid).  Null = inert.
  const RunContext* context = nullptr;

  /// Debug auditor cadence: every `audit_interval` moves the pass checks
  /// incremental gain vectors, binding-number counts and cut cost against
  /// a from-scratch recompute (throws std::logic_error on mismatch).
  /// Gain vectors are integral, so the comparison is exact.  0 = off.
  int audit_interval = 0;
  double audit_tolerance = 1e-6;
};

/// Improves `part` in place with LA-k passes until no positive gain.
RefineOutcome la_refine(Partition& part, const BalanceConstraint& balance,
                        const LaConfig& config = {});

class LaPartitioner final
    : public IterativePartitioner<LaPartitioner, LaConfig, la_refine> {
 public:
  explicit LaPartitioner(LaConfig config = {}) : IterativePartitioner(config) {}

  std::string name() const override {
    return "LA-" + std::to_string(config_.lookahead);
  }
};

}  // namespace prop
