// The PROP pass engine for every number of parts k (paper Fig. 2 with the
// Sec. 3.4 update policy; k > 2 is the paper's Sec. 5 k-way direction).
//
// One class template serves Partition (k = 2, core/prop_partitioner.h) and
// KWayState (kway/kway_prop_refiner.h).  It is the PROP gain policy of the
// shared pass skeleton (partition/pass_engine.h), which owns the move loop,
// the pick over parts, the prefix, the audit cadence, the rollback and the
// until-no-gain driver; this class supplies the hooks.  Each pass:
//   * bootstraps probabilities and iterates gains -> probabilities
//     (Sec. 3.3);
//   * gives every free node k - 1 probabilistic gains, one per target
//     part, and keeps it in its part's gain heap keyed by the best of them
//     (datastruct/gain_heap.h; the paper's Sec. 3.5 uses an AVL tree, and
//     the heap keeps its exact move order);
//   * step 6: takes the best feasible move of each part's heap; the highest
//     gain wins, and gains within kGainEps go to the heavier source part;
//   * steps 7-8: locks and moves the winner, applies before/after per-net
//     gain deltas to every free pin of its nets, then recomputes the top
//     top_update_width nodes of the source and target heaps from scratch
//     ("a few, say five, of the top ranked nodes", Sec. 3.4);
//   * keeps the pass's cost floor, the cost of the nets whose locked pins
//     already span parts, which no later move can lower; the skeleton ends
//     the pass once that floor rules out a better prefix;
//   * step 10: rolls back to the maximum prefix of exact objective gains,
//     so every accepted pass is a true improvement (the skeleton's part).
// At k = 2 every rule reduces to the paper's bisection.  What differs per
// caller is PropMoveRules<State>: move feasibility, the exact objective and
// how a move is applied.
//
// Drift chain (the after_move hook): audits (PropConfig::audit_interval)
// measure how far the cached products are from a scratch recompute, and
// right after a resync how far the gains are.  Divergence beyond
// kDriftHardBound, or an injected prop-drift fault, triggers an emergency
// resync; after kMaxEmergencyResyncs of those the engine
// rolls the pass back and reports drift_gave_up(), and the caller ends the
// chain (FM at k = 2, a plain stop at k > 2).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/prob_gain.h"
#include "core/prop_config.h"
#include "datastruct/gain_heap.h"
#include "hypergraph/hypergraph.h"
#include "partition/pass_engine.h"
#include "telemetry/invariant_audit.h"

namespace prop {

/// A caller's move rules: feasibility of moving a node of `size` from part
/// `from` to part `to`, the largest size feasibility can admit for such a
/// move (max_move_size, an upper bound that every feasible move fits), the
/// exact objective gain the prefix is judged by,
/// the objective cost, the cost-floor step of a net whose locked pins
/// reach one more part, applying a move, and auditing the incremental
/// cost.
/// Specialized once per State, next to its PropRefiner instantiation.
template <typename State>
struct PropMoveRules;

template <typename State>
class PropRefiner : public PassEngine<PropRefiner<State>> {
 public:
  /// Probabilistic gains are products/sums of doubles, so exact comparisons
  /// essentially never fire; anything within this absolute tolerance is
  /// treated as equal (selection ties) or as unchanged (delta application,
  /// top-node refreshes).
  static constexpr double kGainEps = 1e-12;
  /// Audited cache divergence above this bound triggers an emergency
  /// resync.  Cache drift between epoch renormalizations is ~1e-14, so
  /// only real divergence reaches it.
  static constexpr double kDriftHardBound = 1e-3;
  /// Emergency resyncs one refiner performs before giving up on
  /// probabilistic gains.
  static constexpr int kMaxEmergencyResyncs = 3;

  /// `state`, the rules' referents and `config` must outlive the refiner.
  /// Owns the gain calculator, the per-part heaps and every per-pass
  /// scratch vector, so passes after the first allocate nothing — the
  /// gain-kernel microbenchmark asserts exactly that.
  PropRefiner(State& state, PropMoveRules<State> rules,
              const PropConfig& config);

  // run_pass() (steps 3-10 of Fig. 2) and refine() come from the pass
  // skeleton.

  /// The drift chain gave up on probabilistic gains (sticky); the pass was
  /// rolled back to its best prefix.
  bool drift_gave_up() const noexcept { return drift_gave_up_; }

 private:
  friend class PassEngine<PropRefiner>;
  using GainHeaps = GainHeap<double>;
  using NetPart = typename ProbGainCalculator<State>::NetPart;

  struct Move {
    NodeId node = kInvalidNode;
    NodeId from = 0;
    NodeId to = 0;
    double gain = 0.0;
  };

  // The skeleton's hooks (partition/pass_engine.h).
  const PropConfig& config() const noexcept { return *config_; }
  NodeId parts() const noexcept { return state_->k(); }
  std::int64_t part_size(NodeId p) const noexcept {
    return state_->part_size(p);
  }
  double cost() const { return rules_.cost(*state_); }
  void load(PassStats* stats);
  Move best_move(NodeId p);
  /// Step 6's key order.  Gains within kGainEps tie (an exact comparison
  /// of probability products never ties), and the skeleton gives a tie to
  /// the heavier source part, mirroring FM.
  int compare(const Move& a, const Move& b) const noexcept {
    if (a.gain > b.gain + kGainEps) return 1;
    return std::abs(a.gain - b.gain) <= kGainEps ? 0 : -1;
  }
  double apply(const Move& m, PassStats* stats);
  bool after_move(std::size_t moves, bool audit_due, PassStats* stats);
  void undo(const PassMove& m) { rules_.move(*state_, m.node, m.from); }
  bool gave_up() const noexcept { return drift_gave_up_; }
  double cost_floor() const noexcept { return floor_; }

  NodeId targets() const noexcept { return state_->k() - 1; }
  /// Target part of v's j-th gain slot (slots skip v's own part).
  static NodeId target(NodeId from, NodeId j) noexcept {
    return j < from ? j : j + 1;
  }
  /// First of v's gain slots; slot j holds the gain toward target(part, j).
  std::size_t base(NodeId v) const noexcept {
    return static_cast<std::size_t>(v) * targets();
  }
  /// Index of target `to` among v's gain slots.
  NodeId slot_of(NodeId v, NodeId to) const noexcept {
    if (targets() == 1) return 0;  // k = 2: one slot, no part lookup
    return to < state_->part(v) ? to : to - 1;
  }
  double best_gain(NodeId v) const noexcept;
  /// delta_ index of v's gain toward `to` (v visited by the current move).
  std::size_t delta_index(NodeId v, NodeId to) const noexcept {
    return std::size_t{visit_index_[v]} * targets() + slot_of(v, to);
  }

  void bootstrap_probabilities();
  void load_heaps(PassStats* stats);
  Move feasible_move(NodeId u, std::int64_t size) const;
  std::int64_t smallest_free_size(NodeId p);
  void first_visit(NodeId v);
  void apply_deltas(PassStats* stats);
  void reposition(NodeId v, PassStats* stats);
  void refresh_node(NodeId v, PassStats* stats);
  void resync_gains(PassStats* stats);
  double audit(PassStats* stats, bool expect_scratch_match) const;

  State* state_;
  PropMoveRules<State> rules_;
  const PropConfig* config_;
  ProbGainCalculator<State> calc_;
  GainHeaps heaps_;  // one heap per part over one handle space

  // Per-pass workspace, cleared and reused across passes instead of
  // reallocated (perf: the bootstrap + move loop must be allocation-free).
  std::vector<double> gains_;  // (k - 1) slots per node
  // Per-move gain deltas: k - 1 per visited node, in visit order (only
  // the visited prefix is ever touched).
  std::vector<double> delta_;
  std::vector<double> fresh_;  // k - 1 scratch gains of one node
  std::vector<NodeId> to_refresh_;
  std::vector<std::uint32_t> visit_stamp_;
  std::vector<std::uint32_t> visit_index_;  // v's position in to_refresh_
  std::vector<std::pair<double, NodeId>> sort_scratch_;
  std::uint32_t stamp_ = 0;
  const bool unit_sizes_;
  // Non-unit sizes only: node ids by (size, id), and per part a cursor at
  // the part's smallest free node in that order.  A pass only ever removes
  // free nodes from a part, so the cursors move forward; load() rewinds
  // them.
  std::vector<NodeId> by_size_;
  std::vector<std::size_t> size_cursor_;
  // One move's before views of the mover's nets (k per net), and its after
  // contributions as (delta_ index, value), replayed once every net is done.
  std::vector<NetPart> views_;
  struct Replay {
    std::size_t index;
    double gain;
  };
  std::vector<Replay> replay_;

  // The cost floor: the objective of the nets whose locked pins span
  // locked_parts_[net] parts, grown by PropMoveRules::floor_step.
  std::vector<NodeId> locked_parts_;
  double floor_ = 0.0;

  bool drift_gave_up_ = false;
  int emergency_resyncs_ = 0;
};

// ---------------------------------------------------------------------------
// Member definitions.  Both instantiations are explicit: prop_core compiles
// Partition (core/prop_partitioner.cpp), prop_kway compiles KWayState
// (kway/kway_prop_refiner.cpp).

template <typename State>
PropRefiner<State>::PropRefiner(State& state, PropMoveRules<State> rules,
                                const PropConfig& config)
    : PassEngine<PropRefiner>(state.graph().num_nodes()),
      state_(&state),
      rules_(rules),
      config_(&config),
      calc_(state, config.gain_engine),
      heaps_(state.graph().num_nodes(), state.k()),
      gains_(static_cast<std::size_t>(state.graph().num_nodes()) * targets(),
             0.0),
      fresh_(targets(), 0.0),
      visit_stamp_(state.graph().num_nodes(), 0),
      visit_index_(state.graph().num_nodes(), 0),
      unit_sizes_(state.graph().unit_node_sizes()),
      views_(state.graph().max_degree() * state.k()),
      locked_parts_(state.graph().num_nets(), 0) {
  const Hypergraph& g = state.graph();
  const NodeId n = g.num_nodes();
  to_refresh_.reserve(n);
  delta_.reserve(gains_.size());
  sort_scratch_.reserve(n);
  // A move replays at most (k - 1) contributions per pin of its nets.
  std::size_t reach = 0;
  for (NodeId u = 0; u < n; ++u) {
    std::size_t pins = 0;
    for (const NetId net : g.nets_of(u)) pins += g.net_size(net);
    reach = std::max(reach, pins);
  }
  replay_.reserve(reach * targets());
  if (!unit_sizes_) {
    by_size_.resize(n);
    std::iota(by_size_.begin(), by_size_.end(), NodeId{0});
    std::stable_sort(by_size_.begin(), by_size_.end(),
                     [&](NodeId a, NodeId b) {
                       return g.node_size(a) < g.node_size(b);
                     });
    size_cursor_.assign(state.k(), 0);
  }
}

template <typename State>
double PropRefiner<State>::best_gain(NodeId v) const noexcept {
  const double* g = &gains_[base(v)];
  double best = g[0];
  for (NodeId j = 1; j < targets(); ++j) best = std::max(best, g[j]);
  return best;
}

/// Steps 3-4 of Fig. 2: bootstrap probabilities, then iterate
/// gains -> probabilities `refine_iterations` times.  Leaves gains_ filled
/// with the final probabilistic gains.  Under the cached engine the gain
/// sweep is net-major — one for_each_net_gain emission per net, O(sum |n|)
/// total; the scratch engine keeps the legacy node-major sweep
/// (O(sum deg(u) * |n|)), which is the cost model the gain-kernel
/// benchmark measures it by.  kShadow deliberately follows the scratch
/// branch so a shadow run is decision-identical to a scratch run.
template <typename State>
void PropRefiner<State>::bootstrap_probabilities() {
  const State& state = *state_;
  const PropConfig& config = *config_;
  const NodeId n = state.graph().num_nodes();
  for (NodeId u = 0; u < n; ++u) {
    double p = config.model.pinit;
    if (config.bootstrap == PropBootstrap::kDeterministicGain) {
      double best = rules_.gain(state, u, target(state.part(u), 0));
      for (NodeId j = 1; j < targets(); ++j) {
        best = std::max(best, rules_.gain(state, u, target(state.part(u), j)));
      }
      p = config.model.from_gain(best);
    }
    calc_.set_probability(u, p);
  }
  const NetId nets = state.graph().num_nets();
  for (int iter = 0; iter < config.refine_iterations; ++iter) {
    // Gains from the current probability snapshot...
    if (config.gain_engine == GainEngine::kCached) {
      std::fill(gains_.begin(), gains_.end(), 0.0);
      for (NetId net = 0; net < nets; ++net) {
        calc_.for_each_net_gain(net, [&](NodeId v, NodeId to, double gv) {
          gains_[base(v) + slot_of(v, to)] += gv;
        });
      }
    } else {
      for (NodeId u = 0; u < n; ++u) calc_.gains(u, &gains_[base(u)]);
    }
    // ...then probabilities from those gains.
    for (NodeId u = 0; u < n; ++u) {
      calc_.set_probability(u, config.model.from_gain(best_gain(u)));
    }
  }
}

/// Bulk-loads each part's heap: stage (best gain, node), sort ascending
/// with node id as the tie key, lay out in O(n).  Equal gains join in node
/// order — the same LIFO recency order inserting node by node would
/// produce.  (std::sort, not stable_sort: the latter allocates, and this
/// path must stay allocation-free across passes.)
template <typename State>
void PropRefiner<State>::load_heaps(PassStats* stats) {
  const State& state = *state_;
  const NodeId n = state.graph().num_nodes();
  for (NodeId p = 0; p < state.k(); ++p) {
    sort_scratch_.clear();
    for (NodeId u = 0; u < n; ++u) {
      if (state.part(u) == p) sort_scratch_.emplace_back(best_gain(u), u);
    }
    std::sort(sort_scratch_.begin(), sort_scratch_.end());
    heaps_.assign_sorted(sort_scratch_.data(),
                         static_cast<std::uint32_t>(sort_scratch_.size()), p);
  }
  if (stats) stats->ops.inserts += n;
}

/// u's best feasible target by stored gain (lowest part id on ties), or
/// node == kInvalidNode when no target admits a node of `size`.
template <typename State>
typename PropRefiner<State>::Move PropRefiner<State>::feasible_move(
    NodeId u, std::int64_t size) const {
  const NodeId from = state_->part(u);
  const std::size_t first = base(u);
  Move m;
  for (NodeId j = 0; j < targets(); ++j) {
    const NodeId to = target(from, j);
    if (!rules_.feasible(*state_, from, to, size)) continue;
    const double g = gains_[first + j];
    if (m.node == kInvalidNode || g > m.gain + kGainEps) m = {u, from, to, g};
  }
  return m;
}

/// Size of the smallest free node of part p, whose heap must be nonempty.
/// Amortized O(1): each part's cursor passes each node once per pass.
template <typename State>
std::int64_t PropRefiner<State>::smallest_free_size(NodeId p) {
  std::size_t& i = size_cursor_[p];
  while (heaps_.tree_of(by_size_[i]) != p) ++i;
  return state_->graph().node_size(by_size_[i]);
}

/// Step 6 within one part: the highest-ranked node of p's heap that has a
/// feasible target.  With unit node sizes feasibility depends only on
/// (from, to), so the heap's max decides for all of p.  Otherwise, when
/// even p's smallest free node exceeds every target's max_move_size, no
/// node of p is feasible, and the heap walk, which would test every one of
/// them, is skipped: the same answer, exactly.
template <typename State>
typename PropRefiner<State>::Move PropRefiner<State>::best_move(NodeId p) {
  if (heaps_.empty(p)) return {};
  if (unit_sizes_) return feasible_move(heaps_.max(p), 1);
  std::int64_t bound = std::numeric_limits<std::int64_t>::min();
  for (NodeId j = 0; j < targets(); ++j) {
    bound = std::max(bound, rules_.max_move_size(*state_, p, target(p, j)));
  }
  if (smallest_free_size(p) > bound) return {};
  const Hypergraph& g = state_->graph();
  const GainHeaps::Handle h = heaps_.max_if(
      [&](GainHeaps::Handle v) {
        return feasible_move(v, g.node_size(v)).node != kInvalidNode;
      },
      p);
  if (h == GainHeaps::kNull) return {};
  return feasible_move(h, g.node_size(h));
}

/// Registers v as visited by the current move, with zeroed deltas.  Kept
/// out of the per-emission path so that path stays small enough to inline.
template <typename State>
void PropRefiner<State>::first_visit(NodeId v) {
  visit_stamp_[v] = stamp_;
  visit_index_[v] = static_cast<std::uint32_t>(to_refresh_.size());
  to_refresh_.push_back(v);
  delta_.resize(delta_.size() + targets(), 0.0);
}

/// Step 8 / Sec. 3.4: adds each visited node's accumulated per-target
/// deltas to gains_ and repositions it.  An exact == 0.0 test never fires
/// once real contributions cancel: the -old/+new accumulation leaves FP
/// residue.  Residue-sized deltas count as "contribution unchanged" so
/// they neither trigger heap updates nor seep into gains_.
template <typename State>
void PropRefiner<State>::apply_deltas(PassStats* stats) {
  const double* delta = delta_.data();
  for (const NodeId v : to_refresh_) {
    const std::size_t first = base(v);
    bool changed = false;
    for (NodeId j = 0; j < targets(); ++j, ++delta) {
      if (std::abs(*delta) <= kGainEps) continue;
      gains_[first + j] += *delta;
      changed = true;
    }
    if (changed) reposition(v, stats);
  }
}

/// Re-keys v's heap entry by its best gain — unless that is unchanged, as
/// when only a non-best target's gain moved — and rewrites its
/// probability.
template <typename State>
void PropRefiner<State>::reposition(NodeId v, PassStats* stats) {
  const double best = best_gain(v);
  if (heaps_.contains(v) && heaps_.key(v) != best) {
    heaps_.update(v, best);
    if (stats) ++stats->ops.updates;
  }
  calc_.set_probability(v, config_->model.from_gain(best));
}

/// Recomputes the gains and probability of one free node from scratch at
/// the current probability state.  When every recomputed gain matches the
/// stored one within kGainEps, the node's heap position and probability
/// are already right — skip the re-key entirely (counted as a refresh_skip
/// in telemetry).
template <typename State>
void PropRefiner<State>::refresh_node(NodeId v, PassStats* stats) {
  const std::size_t first = base(v);
  calc_.gains(v, fresh_.data());
  bool moved = false;
  for (NodeId j = 0; j < targets(); ++j) {
    if (std::abs(fresh_[j] - gains_[first + j]) > kGainEps) moved = true;
  }
  if (!moved) {
    if (stats) ++stats->refresh_skips;
    return;
  }
  std::copy(fresh_.begin(), fresh_.end(), gains_.begin() + first);
  reposition(v, stats);
}

/// Drift-bounding resync (PropConfig::resync_interval and the emergency
/// resyncs): renormalizes the cached products exactly, then recomputes the
/// gains of every free node from scratch at the current probability state
/// and refreshes the heap keys.  Probabilities are deliberately left to
/// the normal per-move updates, so immediately after this sweep gains_
/// agrees with ProbGainCalculator::gain exactly.
template <typename State>
void PropRefiner<State>::resync_gains(PassStats* stats) {
  calc_.renormalize_all();
  const NodeId n = state_->graph().num_nodes();
  for (NodeId v = 0; v < n; ++v) {
    if (!calc_.is_free(v)) continue;
    calc_.gains(v, &gains_[base(v)]);
    if (heaps_.contains(v)) {
      heaps_.update(v, best_gain(v));
      if (stats) ++stats->ops.updates;
    }
    if (stats) ++stats->resyncs;
  }
}

/// Debug audit (PropConfig::audit_interval): asserts the exact incremental
/// invariants — locked-pin counts, cached products vs the scratch oracle,
/// probability bounds, heap membership and heap keys vs gains_, incremental
/// objective cost, the cost floor against a recount from the locked-pin
/// table and against the cost — and records the gap between gains_ and a
/// from-scratch recompute as telemetry drift.  The gap is hard-asserted
/// only when `expect_scratch_match` is set (right after a resync): in
/// between, gains_ is stale w.r.t. later probability updates of
/// neighboring nodes *by design* (the paper's Sec. 3.4 update policy), so
/// it is no sign of divergence.  Returns the divergence that feeds the
/// degradation chain: the cached products' drift, and after a resync also
/// the gap.
template <typename State>
double PropRefiner<State>::audit(PassStats* stats,
                                 bool expect_scratch_match) const {
  const State& state = *state_;
  const PropConfig& config = *config_;
  const Hypergraph& g = state.graph();
  rules_.check_cost(state, config.audit_tolerance);
  calc_.audit_consistency();
  double floor = 0.0;
  for (NetId net = 0; net < g.num_nets(); ++net) {
    NodeId locked_parts = 0;
    for (NodeId p = 0; p < state.k(); ++p) {
      if (calc_.locked_pins(net, p) == 0) continue;
      floor += rules_.floor_step(++locked_parts, g.net_cost(net));
    }
  }
  audit::check(std::abs(floor_ - floor) <= config.audit_tolerance,
               "PROP: incremental cost floor != recomputed");
  audit::check(floor_ <= cost() + config.audit_tolerance,
               "PROP: cost floor above the cost");
  audit::DriftTracker drift;
  const NodeId n = g.num_nodes();
  for (NodeId v = 0; v < n; ++v) {
    const NodeId own = state.part(v);
    if (!calc_.is_free(v)) {
      audit::check_node(!heaps_.contains(v),
                        "PROP: locked node still in a gain heap", v);
      continue;
    }
    audit::check_node(heaps_.tree_of(v) == own,
                      "PROP: free node not in its part's gain heap", v);
    audit::check_node(heaps_.key(v) == best_gain(v),
                      "PROP: heap key out of sync with gains[]", v);
    for (NodeId j = 0; j < targets(); ++j) {
      const double stored = gains_[base(v) + j];
      const double scratch = calc_.gain(v, target(own, j));
      drift.observe(v, stored, scratch);
      if (expect_scratch_match) {
        audit::check_close(stored, scratch, config.audit_tolerance,
                           "PROP gain after resync", v);
      }
    }
  }
  if (stats) {
    ++stats->audits;
    if (drift.max_abs > stats->max_gain_drift) {
      stats->max_gain_drift = drift.max_abs;
    }
  }
  const double divergence = calc_.max_product_drift();
  return expect_scratch_match ? std::max(divergence, drift.max_abs)
                              : divergence;
}

/// Pass start (steps 3-5 of Fig. 2): fresh probabilities and gains, then
/// the heaps.
template <typename State>
void PropRefiner<State>::load(PassStats* stats) {
  // The visit-stamp epoch survives across passes (visit_stamp_ is reused,
  // not reallocated); rewind it before it can wrap around: at most one
  // stamp per move, at most n moves.
  if (static_cast<std::uint64_t>(stamp_) + state_->graph().num_nodes() + 1 >=
      static_cast<std::uint32_t>(-1)) {
    std::fill(visit_stamp_.begin(), visit_stamp_.end(), 0);
    stamp_ = 0;
  }
  calc_.reset();
  std::fill(size_cursor_.begin(), size_cursor_.end(), 0);
  std::fill(locked_parts_.begin(), locked_parts_.end(), 0);
  floor_ = 0.0;
  bootstrap_probabilities();
  load_heaps(stats);
}

/// Steps 7-8: locks and moves u, then updates the gains around it.
/// Returns the exact objective gain, which the recorded prefix uses.
template <typename State>
double PropRefiner<State>::apply(const Move& m, PassStats* stats) {
  State& state = *state_;
  const Hypergraph& g = state.graph();
  const NodeId u = m.node;
  const double immediate = rules_.gain(state, u, m.to);
  heaps_.erase(u);
  if (stats) ++stats->ops.erases;

  // Step 8 / Sec. 3.4: after moving u, the removal probabilities of u's
  // nets change, so every free pin of those nets gets the before/after
  // delta of that net's gain contributions — O(pins of u's nets * (k-1))
  // per move.  The before views of u's nets are taken first; then one pin
  // pass per net yields both contributions.  Before values go into delta_
  // at once and after values are replayed once every net is done, so each
  // delta_ slot sums exactly as two full sweeps would: all before values
  // in net and pin order, then all after values in the same order.
  const auto nets = g.nets_of(u);
  const NodeId k = state.k();
  for (std::size_t i = 0; i < nets.size(); ++i) {
    calc_.net_view(nets[i], &views_[i * k]);
  }
  calc_.lock(u);
  rules_.move(state, u, m.to);
  calc_.move_locked(u, m.from);

  ++stamp_;
  to_refresh_.clear();
  delta_.clear();
  replay_.clear();
  for (std::size_t i = 0; i < nets.size(); ++i) {
    const NetId net = nets[i];
    // u is the net's first locked pin in m.to: one more locked part.
    if (calc_.locked_pins(net, m.to) == 1) {
      floor_ += rules_.floor_step(++locked_parts_[net], g.net_cost(net));
    }
    calc_.for_each_net_gain_change(
        net, &views_[i * k],
        [&](NodeId v, NodeId vto, double gv) {
          if (visit_stamp_[v] != stamp_) first_visit(v);
          delta_[delta_index(v, vto)] -= gv;
        },
        [&](NodeId v, NodeId vto, double gv) {
          replay_.push_back({delta_index(v, vto), gv});
        });
  }
  for (const Replay& r : replay_) delta_[r.index] += r.gain;
  apply_deltas(stats);

  if (config_->top_update_width > 0) {
    for (const NodeId p : {std::min(m.from, m.to), std::max(m.from, m.to)}) {
      to_refresh_.clear();
      int budget = config_->top_update_width;
      heaps_.for_each_descending(
          [&](GainHeaps::Handle h, double) {
            to_refresh_.push_back(h);
            return --budget > 0;
          },
          p);
      for (const NodeId v : to_refresh_) refresh_node(v, stats);
    }
  }
  return immediate;
}

/// After `moves` moves: the audit and resync sweeps when due, then the
/// drift chain.  Returns false when the chain gives up, which ends the pass
/// (it still rolls back to the best prefix).
template <typename State>
bool PropRefiner<State>::after_move(std::size_t moves, bool audit_due,
                                    PassStats* stats) {
  const PropConfig& config = *config_;
  const RunContext* ctx = config.context;
  const bool resync_due =
      config.resync_interval > 0 &&
      moves % static_cast<std::size_t>(config.resync_interval) == 0;
  double observed_drift = 0.0;
  if (audit_due) {
    // Records the staleness of gains_ since the last resync (or pass start)
    // as telemetry; only the cache's divergence comes back.
    observed_drift = audit(stats, /*expect_scratch_match=*/false);
  }
  if (resync_due) {
    resync_gains(stats);
    if (audit_due) {
      // Post-resync, gains[] must equal the scratch recompute exactly.
      observed_drift =
          std::max(observed_drift, audit(stats, /*expect_scratch_match=*/true));
    }
  }

  // Degradation chain: divergence beyond the hard bound (or an injected
  // prop-drift fault) means the incremental probabilistic bookkeeping is
  // diverging.  First line of defense is an emergency resync — the same
  // sweep as resync_interval, just demand-driven; past
  // kMaxEmergencyResyncs the engine gives up on probabilistic gains and
  // leaves the last link of the chain to its caller.
  bool drift_blowup = observed_drift > kDriftHardBound;
  if (ctx && ctx->inject(FaultSite::kPropDrift)) drift_blowup = true;
  if (!drift_blowup) return true;
  ++emergency_resyncs_;
  if (emergency_resyncs_ > kMaxEmergencyResyncs) {
    drift_gave_up_ = true;
    return false;
  }
  resync_gains(stats);
  if (ctx) {
    ctx->degrade("prop.gain-drift", "resync",
                 "drift " + std::to_string(observed_drift) + " at move " +
                     std::to_string(moves));
  }
  return true;
}

}  // namespace prop
