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
#include <string>

#include "core/prop_config.h"
#include "core/prop_refiner.h"
#include "partition/iterative_partitioner.h"
#include "partition/partition.h"
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
  std::int64_t max_move_size(const Partition& part, NodeId from,
                             NodeId /*to*/) const noexcept {
    return from == 0 ? part.side_size(0) - balance->lo()
                     : balance->hi() - part.side_size(0);
  }
  double gain(const Partition& part, NodeId u, NodeId /*to*/) const noexcept {
    return part.immediate_gain(u);
  }
  double cost(const Partition& part) const noexcept { return part.cut_cost(); }
  /// Cost-floor step of a net of cost c whose pass-locked pins now span
  /// `locked_parts` parts: locked pins on both sides keep it cut.
  static double floor_step(NodeId locked_parts, double c) noexcept {
    return locked_parts == 2 ? c : 0.0;
  }
  void move(Partition& part, NodeId u, NodeId /*to*/) const { part.move(u); }
  void check_cost(const Partition& part, double tol) const {
    audit::check_cut(part, tol);
  }
};

extern template class PropRefiner<Partition>;
extern template class PassEngine<PropRefiner<Partition>>;

/// Improves `part` in place with PROP passes until no positive gain.  When
/// the drift chain gives up, refinement finishes with deterministic FM.
RefineOutcome prop_refine(Partition& part, const BalanceConstraint& balance,
                          const PropConfig& config = {});

class PropPartitioner final
    : public IterativePartitioner<PropPartitioner, PropConfig, prop_refine> {
 public:
  explicit PropPartitioner(PropConfig config = {})
      : IterativePartitioner(config) {
    config_.model.validate();
  }

  std::string name() const override { return "PROP"; }

  const PropConfig& config() const noexcept { return config_; }
};

}  // namespace prop
