// Native k-way PROP refinement (paper Sec. 5's k-way direction).
//
// The 2-way PROP pass lifted to k parts: PropRefiner<KWayState>
// (core/prop_refiner.h) — the same PROP policy of the shared pass skeleton
// (partition/pass_engine.h) as the 2-way refiner, with one
// gain heap per part, k - 1 probabilistic gains per node kept current by
// per-net deltas, and rollback to the prefix with the best exact objective
// improvement.  The exact-prefix acceptance makes every pass monotone in
// the configured objective: the refined partition is never worse than the
// input, so running this after the greedy k-way polish can only improve
// (or match) it.
//
// Balance is a per-part size window (partition/kway_balance.h), shared
// with the greedy refiner and recursive bisection so feasibility cannot
// drift between layers.  Deadline/cancel polling, per-pass telemetry and
// the drift chain match the 2-way refiner's contract, except that the
// chain's last link is a plain stop (there is no k-way FM to fall back to).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/prop_config.h"
#include "core/prop_refiner.h"
#include "kway/kway_refine.h"  // KWayObjective
#include "kway/kway_state.h"
#include "partition/kway_balance.h"

namespace prop {

struct KWayPropConfig : PropConfig {
  KWayObjective objective = KWayObjective::kConnectivity;
};

struct KWayPropOutcome {
  double cut_cost = 0.0;
  double connectivity_cost = 0.0;
  int passes = 0;
  /// A deadline/cancellation stopped refinement early; the partition is the
  /// best-so-far state (every pass rolls back to its best prefix).
  bool interrupted = false;
};

/// KWayState's move rules: the per-part size window (source stays >= lo,
/// destination stays <= hi) and the configured k-way objective.
template <>
struct PropMoveRules<KWayState> {
  KWayBalanceWindow window;
  KWayObjective objective;

  bool feasible(const KWayState& state, NodeId from, NodeId to,
                std::int64_t size) const noexcept {
    return state.part_size(from) - size >= window.lo &&
           state.part_size(to) + size <= window.hi;
  }
  std::int64_t max_move_size(const KWayState& state, NodeId from,
                             NodeId to) const noexcept {
    return std::min(state.part_size(from) - window.lo,
                    window.hi - state.part_size(to));
  }
  double gain(const KWayState& state, NodeId u, NodeId to) const {
    return objective == KWayObjective::kCut ? state.cut_gain(u, to)
                                            : state.connectivity_gain(u, to);
  }
  double cost(const KWayState& state) const noexcept {
    return objective == KWayObjective::kCut ? state.cut_cost()
                                            : state.connectivity_cost();
  }
  /// Cost-floor step of a net of cost c whose pass-locked pins now span
  /// `locked_parts` parts: the net stays cut from the second part on, and
  /// each further part adds one more unit of connectivity.
  double floor_step(NodeId locked_parts, double c) const noexcept {
    if (objective == KWayObjective::kCut) return locked_parts == 2 ? c : 0.0;
    return locked_parts >= 2 ? c : 0.0;
  }
  void move(KWayState& state, NodeId u, NodeId to) const { state.move(u, to); }
  void check_cost(const KWayState& state, double tol) const;
};

extern template class PropRefiner<KWayState>;
extern template class PassEngine<PropRefiner<KWayState>>;

/// Refines `part` (part ids in [0, k)) in place toward the configured
/// objective, keeping every part inside `window`.  Parts already outside
/// the window are tolerated: nodes only move when source stays >= lo and
/// destination stays <= hi, so imbalance never grows.  Deterministic: equal
/// inputs give equal outputs (no RNG).
KWayPropOutcome kway_prop_refine(const Hypergraph& g,
                                 std::vector<NodeId>& part, NodeId k,
                                 const KWayBalanceWindow& window,
                                 const KWayPropConfig& config);

}  // namespace prop
