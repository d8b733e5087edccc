// PROP — the PRObabilistic Partitioner (paper Fig. 2), 2-way.
//
// An FM-style pass engine that *selects* moves by probabilistic gain
// (prob_gain.h) while *accepting* the maximum prefix of deterministic
// immediate gains, so every accepted pass is a true cut improvement.  The
// pass itself is PropRefiner<Partition> (prop_refiner.h); this header adds
// Partition's move rules, the prop_refine wrapper with its FM fallback and
// the Bipartitioner adapter.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/prop_config.h"
#include "core/prop_refiner.h"
#include "partition/partition.h"
#include "partition/partitioner.h"
#include "telemetry/invariant_audit.h"

namespace prop {

/// Partition's move rules: BalanceConstraint feasibility and the immediate
/// cut gain (paper Eqn. 1).
template <>
struct PropMoveRules<Partition> {
  const BalanceConstraint* balance;

  bool feasible(const Partition& part, NodeId from, NodeId /*to*/,
                std::int64_t size) const noexcept {
    return balance->move_feasible(part.side_size(0), static_cast<int>(from),
                                  size);
  }
  double gain(const Partition& part, NodeId u, NodeId /*to*/) const noexcept {
    return part.immediate_gain(u);
  }
  double cost(const Partition& part) const noexcept { return part.cut_cost(); }
  void move(Partition& part, NodeId u, NodeId /*to*/) const { part.move(u); }
  void check_cost(const Partition& part, double tol) const {
    audit::check_cut(part, tol);
  }
};

extern template class PropRefiner<Partition>;

/// Improves `part` in place with PROP passes until no positive gain.  When
/// the drift chain gives up, refinement finishes with deterministic FM.
RefineOutcome prop_refine(Partition& part, const BalanceConstraint& balance,
                          const PropConfig& config = {});

class PropPartitioner final : public Bipartitioner {
 public:
  explicit PropPartitioner(PropConfig config = {}) : config_(config) {
    config_.model.validate();
  }

  std::string name() const override { return "PROP"; }

  bool attach_telemetry(RefineTelemetry* telemetry) noexcept override {
    config_.telemetry = telemetry;
    return true;
  }

  bool attach_context(const RunContext* context) noexcept override {
    config_.context = context;
    return true;
  }

  PartitionResult run(const Hypergraph& g, const BalanceConstraint& balance,
                      std::uint64_t seed) override;

  std::unique_ptr<Bipartitioner> clone() const override {
    auto copy = std::make_unique<PropPartitioner>(config_);
    copy->attach_telemetry(nullptr);
    copy->attach_context(nullptr);
    return copy;
  }

  const PropConfig& config() const noexcept { return config_; }

 private:
  PropConfig config_;
};

}  // namespace prop
