// Multilevel k-way V-cycle: the 2-way driver's V-cycle with a k-way
// coarsest solve and the k-way level step at every uncoarsening level.
//
// The hierarchy comes from the 2-way driver's coarsen() with a k floor (no
// level drops below k nodes) and is walked back down by its uncoarsen().
// The coarsest graph is solved by the k-way pipeline (recursive bisection
// with a multi-start FM bisector, then kway_level_step), and each projection
// hands the next finer level an already-good k-way partition for the same
// kway_level_step: greedy legalization, then k-way PROP unless stopped.
// Balance at every level is the shared proportional-share window
// (partition/kway_balance.h) recomputed against that level's max node
// size, so super-node weight never makes the window unreachable.
//
// Deterministic: everything is seeded, so equal seeds give byte-identical
// results for any runner thread count (same contract as the 2-way driver).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "fm/fm_partitioner.h"
#include "kway/kway_partitioner.h"
#include "multilevel/multilevel_driver.h"

namespace prop {

/// The k-way pipeline settings (used at the coarsest level and at every
/// uncoarsening level) plus the shared coarsening settings.
struct MultilevelKWayConfig : KWayPipelineConfig, CoarseningConfig {
  /// Multi-start pipeline runs on the coarsest graph (best objective wins).
  static constexpr int initial_runs = 4;
  /// 2-way bisector settings for recursive bisection on the coarsest graph.
  FmConfig fm;
  /// Optional runtime context: polled between levels (a stop skips the
  /// remaining PROP refinement but still projects and legalizes down to the
  /// flat graph) and threaded into the PROP refiner.  Null = inert.
  const RunContext* context = nullptr;
};

struct MultilevelKWayResult : KWayPipelineResult {
  int levels = 0;             ///< contraction levels built (0 = ran flat)
  NodeId coarsest_nodes = 0;  ///< node count of the coarsest graph
};

/// Throws std::invalid_argument unless 2 <= k <= min(256, g.num_nodes()).
MultilevelKWayResult multilevel_kway_partition(
    const Hypergraph& g, std::uint64_t seed,
    const MultilevelKWayConfig& config,
    RefineTelemetry* telemetry = nullptr);

/// Bipartitioner adapter with the same k-way PartitionResult contract as
/// KWayPartitioner (part ids in `side`, objective cost in `cut_cost`,
/// BalanceConstraint ignored, validate via validate_kway_result).
class MultilevelKWayPartitioner final : public Bipartitioner {
 public:
  explicit MultilevelKWayPartitioner(MultilevelKWayConfig config)
      : config_(std::move(config)) {}

  std::string name() const override;

  PartitionResult run(const Hypergraph& g, const BalanceConstraint& balance,
                      std::uint64_t seed) override;

  std::unique_ptr<Bipartitioner> clone() const override;

  bool attach_telemetry(RefineTelemetry* telemetry) noexcept override {
    telemetry_ = telemetry;
    return config_.refiner == KWayRefinerKind::kProp;
  }

  bool attach_context(const RunContext* context) noexcept override {
    config_.context = context;
    config_.fm.context = context;
    return true;
  }

  ValidationReport validate(const Hypergraph& g,
                            const BalanceConstraint& balance,
                            const PartitionResult& result) const override;

  const MultilevelKWayConfig& config() const noexcept { return config_; }

 private:
  MultilevelKWayConfig config_;
  RefineTelemetry* telemetry_ = nullptr;
};

}  // namespace prop
