// The speculative improvement pass shared by FM, LA-k (paper Sec. 2) and
// PROP (Fig. 2, steps 6-10), written once over a gain policy.
//
// Every engine runs the same pass: pick the best feasible move over all
// parts, lock and apply it, update the neighbours' gains, and finally roll
// back to the maximum prefix of exact objective gains, so every accepted
// pass is a true improvement.  Passes repeat until one gains nothing.  Only
// the gain model differs between the engines, and that is the policy.
//
// PassEngine<Policy> is a CRTP base: the policy derives from it and
// supplies these hooks, which the skeleton calls without any virtual
// dispatch.
//   const Config& config() const   max_passes, telemetry, context and
//                                  audit_interval of the engine's config
//   NodeId parts() const           number of parts k
//   std::int64_t part_size(NodeId p) const
//   double cost() const            objective entering and leaving a pass
//   void load(PassStats*)          pass start: fresh gains, filled
//                                  containers, unlocked nodes
//   Move best_move(NodeId p)       best feasible move out of part p, with
//                                  node == kInvalidNode when there is none;
//                                  Move carries at least `node` and `from`
//   int compare(const Move& a, const Move& b) const
//                                  > 0 when a's key ranks above b's, 0 on a
//                                  tie (the heavier source part then wins,
//                                  the lower part id at equal size)
//   double apply(const Move&, PassStats*)
//                                  locks and moves the node, updates
//                                  neighbour gains; returns the exact gain
//   bool after_move(std::size_t moves, bool audit_due, PassStats*)
//                                  audits when due; false ends the pass
//   void undo(const PassMove&)     moves a node back during rollback
//   bool gave_up() const           optional sticky "stop refining" (the
//                                  base's default never gives up)
//   double cost_floor() const      optional lower bound on cost() over
//                                  every continuation of the current pass
//                                  (the base's default is no bound)
//
// Cut-off at the cost floor.  A later prefix becomes the pass's best only
// if it lowers the cost below cost_at_load - best_prefix - kEps.  Once the
// policy's floor reaches that value no continuation can, so the pass ends
// there: rollback, best prefix and the partition are exactly those of the
// full pass, and only moves_attempted and the work behind it shrink.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "hypergraph/hypergraph.h"
#include "partition/partitioner.h"
#include "runtime/run_context.h"
#include "telemetry/telemetry.h"
#include "util/timer.h"

namespace prop {

/// One move of a pass, as the rollback needs it: the node and the part it
/// left.
struct PassMove {
  NodeId node;
  NodeId from;
};

template <typename Policy>
class PassEngine {
 public:
  /// A pass must improve the exact objective by more than this to count.
  static constexpr double kEps = 1e-9;

  /// delta of the cut-off test floor >= cost_at_load - best_prefix + delta,
  /// written -kEps + eta.  Let S be the running prefix sum, C0 the cost at
  /// load and F the floor, each computed with rounding errors e_S, e_C0 and
  /// e_F against their exact values.  Exactly, every later prefix has
  /// S <= C0 - F, so once the test holds
  ///   S <= best_prefix + kEps - eta + (e_S - e_C0 + e_F),
  /// and S > best_prefix + kEps, the condition for a new best, needs the
  /// three errors to exceed eta.  With integer net costs (every .hgr input
  /// and every contraction of one) the three values are sums of integers
  /// below 2^53 and exact, so any eta in (0, 1 - kEps) is safe.  With
  /// fractional costs a sum of m terms of magnitude at most W is off by at
  /// most about m * W * 2^-53, 1.1e-8 for m = W = 10^4, so eta = 1e-7
  /// covers the three errors of such a pass with a margin of three.
  static constexpr double kFloorDelta = -kEps + 1e-7;

  /// One pass: move until no feasible move is left, the run is interrupted
  /// or the policy ends the pass, then keep the best prefix.  Returns the
  /// accepted improvement.
  double run_pass(PassStats* stats = nullptr);

  /// Runs passes until one gains nothing, config().max_passes is reached,
  /// the run is interrupted or the policy gives up, recording one
  /// PassStats per pass when config().telemetry is set.  The outcome's
  /// cut_cost is the policy's cost() after the last pass.
  RefineOutcome refine();

  /// Deadline/cancellation stopped a pass early (sticky).
  bool interrupted() const noexcept { return interrupted_; }

  /// The hook's default, for policies that never give up.
  bool gave_up() const noexcept { return false; }

  /// The hook's default, for policies without a cost floor: no bound.
  double cost_floor() const noexcept {
    return -std::numeric_limits<double>::infinity();
  }

 protected:
  /// Reserves the move log for `num_nodes` moves, so no pass allocates.
  explicit PassEngine(NodeId num_nodes) : num_nodes_(num_nodes) {
    moved_.reserve(num_nodes);
  }

 private:
  Policy& policy() noexcept { return static_cast<Policy&>(*this); }

  NodeId num_nodes_;
  std::vector<PassMove> moved_;
  bool interrupted_ = false;
};

template <typename Policy>
double PassEngine<Policy>::run_pass(PassStats* stats) {
  Policy& policy = this->policy();
  const auto& config = policy.config();
  const RunContext* ctx = config.context;
  const auto audit_interval =
      static_cast<std::size_t>(std::max(config.audit_interval, 0));

  policy.load(stats);
  const double cost_at_load = policy.cost();
  moved_.clear();
  double prefix = 0.0;
  double best_prefix = 0.0;
  std::size_t best_count = 0;

  while (true) {
    if (ctx && ctx->refine_should_stop()) {
      interrupted_ = true;
      break;
    }
    typename Policy::Move pick;
    for (NodeId p = 0; p < policy.parts(); ++p) {
      const typename Policy::Move m = policy.best_move(p);
      if (m.node == kInvalidNode) continue;
      if (pick.node == kInvalidNode) {
        pick = m;
        continue;
      }
      const int order = policy.compare(m, pick);
      if (order > 0 ||
          (order == 0 && policy.part_size(p) > policy.part_size(pick.from))) {
        pick = m;
      }
    }
    if (pick.node == kInvalidNode) break;

    prefix += policy.apply(pick, stats);
    moved_.push_back({pick.node, pick.from});
    if (prefix > best_prefix + kEps) {
      best_prefix = prefix;
      best_count = moved_.size();
    }
    const bool audit_due =
        audit_interval > 0 && moved_.size() % audit_interval == 0;
    if (!policy.after_move(moved_.size(), audit_due, stats)) break;
    if (policy.cost_floor() >= cost_at_load - best_prefix + kFloorDelta) {
      if (stats) stats->floor_skipped = num_nodes_ - moved_.size();
      break;
    }
  }

  // Keep only the maximum-prefix moves, undoing newest first.
  for (std::size_t i = moved_.size(); i > best_count; --i) {
    policy.undo(moved_[i - 1]);
  }
  if (stats) {
    stats->moves_attempted = moved_.size();
    stats->moves_accepted = best_count;
    stats->best_prefix_gain = best_prefix;
  }
  return best_prefix;
}

template <typename Policy>
RefineOutcome PassEngine<Policy>::refine() {
  Policy& policy = this->policy();
  const auto& config = policy.config();
  RefineOutcome out;
  for (int pass = 0; pass < config.max_passes; ++pass) {
    PassStats* stats = nullptr;
    WallTimer wall;
    ThreadCpuTimer cpu;
    if (config.telemetry) stats = &config.telemetry->begin_pass(policy.cost());
    const double gained = run_pass(stats);
    ++out.passes;
    if (stats) {
      stats->cut_after = policy.cost();
      stats->wall_seconds = wall.seconds();
      stats->cpu_seconds = cpu.seconds();
    }
    if (interrupted_ || policy.gave_up() || gained <= kEps) break;
  }
  out.cut_cost = policy.cost();
  out.interrupted = interrupted_;
  return out;
}

}  // namespace prop
