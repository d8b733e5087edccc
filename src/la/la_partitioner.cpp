#include "la/la_partitioner.h"

#include <algorithm>
#include <compare>
#include <cstdint>
#include <vector>

#include "datastruct/gain_heap.h"
#include "datastruct/gain_vector.h"
#include "la/la_gains.h"
#include "partition/pass_engine.h"
#include "telemetry/invariant_audit.h"

namespace prop {
namespace {

using SideHeaps = GainHeap<GainVector>;

/// The LA-k gain policy of the pass skeleton (partition/pass_engine.h):
/// one gain heap per side keyed by the lookahead gain vector, kept current
/// by per-net before/after contribution deltas.  Owns every per-pass
/// vector, so passes after the first allocate nothing.
class LaPass : public PassEngine<LaPass> {
 public:
  struct Move {
    NodeId node = kInvalidNode;
    NodeId from = 0;
  };

  LaPass(Partition& part, const BalanceConstraint& balance,
         const LaConfig& config)
      : PassEngine(part.graph().num_nodes()),
        part_(part),
        balance_(balance),
        config_(config),
        calc_(part, config.lookahead),
        heaps_(part.graph().num_nodes(), 2),
        gains_(part.graph().num_nodes()),
        delta_(part.graph().num_nodes()),
        touched_(part.graph().num_nodes(), 0),
        unit_sizes_(part.graph().unit_node_sizes()) {
    affected_.reserve(part.graph().num_nodes());
  }

  const LaConfig& config() const noexcept { return config_; }
  NodeId parts() const noexcept { return 2; }
  std::int64_t part_size(NodeId p) const noexcept {
    return part_.part_size(p);
  }
  double cost() const noexcept { return part_.cut_cost(); }

  void load(PassStats* stats) {
    const NodeId n = part_.graph().num_nodes();
    calc_.reset();
    heaps_.clear();
    for (NodeId u = 0; u < n; ++u) {
      gains_[u] = calc_.gain(u);
      heaps_.insert(u, gains_[u], part_.side(u));
    }
    if (stats) stats->ops.inserts += n;
    std::fill(touched_.begin(), touched_.end(), 0);
    stamp_ = 0;
  }

  /// The best-ranked node of side p that may move.  With unit node sizes
  /// feasibility is uniform per side, so it is checked once instead of
  /// searching the heap for a feasible node.
  Move best_move(NodeId p) {
    if (heaps_.empty(p)) return {};
    const int side = static_cast<int>(p);
    SideHeaps::Handle h;
    if (unit_sizes_) {
      if (!balance_.move_feasible(part_.side_size(0), side, 1)) return {};
      h = heaps_.max(p);
    } else {
      const Hypergraph& g = part_.graph();
      h = heaps_.max_if(
          [&](SideHeaps::Handle v) {
            return balance_.move_feasible(part_.side_size(0), side,
                                          g.node_size(v));
          },
          p);
      if (h == SideHeaps::kNull) return {};
    }
    return {h, p};
  }

  int compare(const Move& a, const Move& b) const noexcept {
    const std::strong_ordering order =
        heaps_.key(a.node) <=> heaps_.key(b.node);
    return order > 0 ? 1 : (order < 0 ? -1 : 0);
  }

  double apply(const Move& m, PassStats* stats) {
    const Hypergraph& g = part_.graph();
    const NodeId u = m.node;
    const int from = static_cast<int>(m.from);
    const double immediate = part_.immediate_gain(u);
    heaps_.erase(u);
    if (stats) ++stats->ops.erases;

    // Locking and moving u changes binding numbers only on u's nets; each
    // free pin of those nets gets the before/after delta of that net's O(1)
    // contribution — O(pins of u's nets) per move in total.
    ++stamp_;
    affected_.clear();
    const auto visit = [&](double sign) {
      for (const NetId net : g.nets_of(u)) {
        for (const NodeId v : g.pins_of(net)) {
          if (v == u || !calc_.is_free(v)) continue;
          if (touched_[v] != stamp_) {
            touched_[v] = stamp_;
            delta_[v] = GainVector(gains_[v].levels());
            affected_.push_back(v);
          }
          const GainVector c = calc_.net_contribution(net, v);
          if (sign < 0) {
            delta_[v] -= c;
          } else {
            delta_[v] += c;
          }
        }
      }
    };
    visit(-1.0);
    calc_.lock(u);
    part_.move(u);
    calc_.move_locked(u, from);
    visit(+1.0);

    for (const NodeId v : affected_) {
      if (delta_[v].is_zero()) continue;  // contribution unchanged
      gains_[v] += delta_[v];
      if (heaps_.contains(v)) {
        heaps_.update(v, gains_[v]);
        if (stats) ++stats->ops.updates;
      }
    }
    return immediate;
  }

  bool after_move(std::size_t /*moves*/, bool audit_due, PassStats* stats) {
    if (audit_due) audit(stats);
    return true;
  }

  void undo(const PassMove& m) { part_.move(m.node); }

 private:
  /// Debug audit (LaConfig::audit_interval): gain vectors are integral, so
  /// the incrementally-maintained vectors, the heap keys and the
  /// calculator's binding-number counts must all match a from-scratch
  /// recompute exactly.
  void audit(PassStats* stats) const {
    audit::check_cut(part_, config_.audit_tolerance);
    calc_.audit_consistency();
    audit::DriftTracker drift;
    const NodeId n = part_.graph().num_nodes();
    for (NodeId v = 0; v < n; ++v) {
      if (!calc_.is_free(v)) {
        audit::check_node(!heaps_.contains(v),
                          "LA: locked node still in a gain heap", v);
        continue;
      }
      audit::check_node(heaps_.tree_of(v) == part_.side(v),
                        "LA: free node not in its side's gain heap", v);
      audit::check_node(heaps_.key(v) == gains_[v],
                        "LA: heap key out of sync with gains[]", v);
      const GainVector scratch = calc_.gain(v);
      for (int level = 1; level <= scratch.levels(); ++level) {
        drift.observe(v, gains_[v].at(level), scratch.at(level));
      }
      audit::check_node(gains_[v] == scratch,
                        "LA: incremental gain vector != scratch recompute", v);
    }
    if (stats) {
      ++stats->audits;
      if (drift.max_abs > stats->max_gain_drift) {
        stats->max_gain_drift = drift.max_abs;
      }
    }
  }

  Partition& part_;
  const BalanceConstraint& balance_;
  const LaConfig& config_;
  LaGainCalculator calc_;
  SideHeaps heaps_;  // one heap per side over one handle space
  std::vector<GainVector> gains_;
  // Per-move delta accumulation, stamped by move.
  std::vector<GainVector> delta_;
  std::vector<std::uint32_t> touched_;
  std::uint32_t stamp_ = 0;
  std::vector<NodeId> affected_;
  const bool unit_sizes_;
};

}  // namespace

RefineOutcome la_refine(Partition& part, const BalanceConstraint& balance,
                        const LaConfig& config) {
  return LaPass(part, balance, config).refine();
}

}  // namespace prop
