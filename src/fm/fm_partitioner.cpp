#include "fm/fm_partitioner.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "datastruct/bucket_list.h"
#include "datastruct/gain_heap.h"
#include "fm/fm_gains.h"
#include "partition/pass_engine.h"
#include "telemetry/invariant_audit.h"

namespace prop {
namespace {

/// Bucket-array gain container (unit net costs: gains are integers).
class BucketContainer {
 public:
  using Handle = BucketList::Handle;
  static constexpr Handle kNull = BucketList::kNull;

  BucketContainer(Handle capacity, int max_gain) : list_(capacity, max_gain) {}

  void clear() { list_.clear(); }
  bool empty() const { return list_.empty(); }
  double gain(Handle h) const { return list_.gain(h); }
  bool contains(Handle h) const { return list_.contains(h); }
  void insert(Handle h, double g) {
    list_.insert(h, static_cast<int>(std::llround(g)));
  }
  void erase(Handle h) { list_.erase(h); }
  void update(Handle h, double g) {
    list_.update(h, static_cast<int>(std::llround(g)));
  }
  // Non-const like the underlying BucketList: selection tightens the lazy
  // max-gain cursor.
  Handle best() { return list_.best(); }
  template <typename Pred>
  Handle best_where(Pred&& pred) {
    return list_.best_where(pred);
  }

 private:
  BucketList list_;
};

/// Gain-heap container (general net costs): the FM-tree structure.
class TreeContainer {
 public:
  using Heap = GainHeap<double>;
  using Handle = Heap::Handle;
  static constexpr Handle kNull = Heap::kNull;

  TreeContainer(Handle capacity, int /*max_gain*/) : heap_(capacity) {}

  void clear() { heap_.clear(); }
  bool empty() const { return heap_.empty(); }
  double gain(Handle h) const { return heap_.key(h); }
  bool contains(Handle h) const { return heap_.contains(h); }
  void insert(Handle h, double g) { heap_.insert(h, g); }
  void erase(Handle h) { heap_.erase(h); }
  void update(Handle h, double g) { heap_.update(h, g); }
  Handle best() const { return heap_.max(); }
  template <typename Pred>
  Handle best_where(Pred&& pred) const {
    return heap_.max_if(pred);
  }

 private:
  Heap heap_;
};

/// The FM gain policy of the pass skeleton (partition/pass_engine.h):
/// one gain container per side keyed by the immediate gain (Eqn. 1),
/// updated by the classic neighbour delta rules.
template <typename Container>
class FmPass : public PassEngine<FmPass<Container>> {
 public:
  struct Move {
    NodeId node = kInvalidNode;
    NodeId from = 0;
    double gain = 0.0;
  };

  FmPass(Partition& part, const BalanceConstraint& balance,
         const FmConfig& config)
      : PassEngine<FmPass>(part.graph().num_nodes()),
        part_(part),
        balance_(balance),
        config_(config),
        side_{Container(part.graph().num_nodes(), max_gain(part)),
              Container(part.graph().num_nodes(), max_gain(part))},
        locked_(part.graph().num_nodes(), 0),
        unit_sizes_(part.graph().unit_node_sizes()) {}

  const FmConfig& config() const noexcept { return config_; }
  NodeId parts() const noexcept { return 2; }
  std::int64_t part_size(NodeId p) const noexcept {
    return part_.part_size(p);
  }
  double cost() const noexcept { return part_.cut_cost(); }

  void load(PassStats* stats) {
    const NodeId n = part_.graph().num_nodes();
    std::fill(locked_.begin(), locked_.end(), 0);
    side_[0].clear();
    side_[1].clear();
    for (NodeId u = 0; u < n; ++u) {
      side_[part_.side(u)].insert(u, part_.immediate_gain(u));
    }
    if (stats) stats->ops.inserts += n;
  }

  /// The highest-gain node of side p that may move.  With unit node sizes
  /// feasibility is uniform per side, so it is checked once instead of
  /// scanning the container past every infeasible node.
  Move best_move(NodeId p) {
    Container& c = side_[p];
    if (c.empty()) return {};
    const int side = static_cast<int>(p);
    typename Container::Handle h;
    if (unit_sizes_) {
      if (!balance_.move_feasible(part_.side_size(0), side, 1)) return {};
      h = c.best();
    } else {
      const Hypergraph& g = part_.graph();
      h = c.best_where([&](NodeId v) {
        return balance_.move_feasible(part_.side_size(0), side,
                                      g.node_size(v));
      });
      if (h == Container::kNull) return {};
    }
    return {h, p, c.gain(h)};
  }

  int compare(const Move& a, const Move& b) const noexcept {
    if (a.gain == b.gain) return 0;
    return a.gain > b.gain ? 1 : -1;
  }

  double apply(const Move& m, PassStats* stats) {
    const NodeId u = m.node;
    const double immediate = part_.immediate_gain(u);
    side_[m.from].erase(u);
    locked_[u] = 1;
    if (stats) ++stats->ops.erases;
    fm_move_with_updates(
        part_, u, [&](NodeId v) { return locked_[v] == 0; },
        [&](NodeId v, double delta) {
          Container& c = side_[part_.side(v)];
          c.update(v, c.gain(v) + delta);
          if (stats) ++stats->ops.updates;
        });
    return immediate;
  }

  bool after_move(std::size_t /*moves*/, bool audit_due, PassStats* stats) {
    if (audit_due) audit(stats);
    return true;
  }

  void undo(const PassMove& m) { part_.move(m.node); }

 private:
  static int max_gain(const Partition& part) {
    return static_cast<int>(part.graph().max_degree()) + 1;
  }

  /// Debug audit (FmConfig::audit_interval): checks every free node's
  /// container gain against a from-scratch Eqn. 1 recompute, container
  /// membership against the lock flags, and the incremental cut cost.  The
  /// FM update rules restate the scratch definition exactly, so any gap
  /// beyond FP accumulation noise is a bug.
  void audit(PassStats* stats) const {
    audit::check_cut(part_, config_.audit_tolerance);
    audit::DriftTracker drift;
    const NodeId n = part_.graph().num_nodes();
    for (NodeId v = 0; v < n; ++v) {
      const Container& own = side_[part_.side(v)];
      const Container& other = side_[1 - part_.side(v)];
      if (locked_[v]) {
        audit::check_node(!own.contains(v) && !other.contains(v),
                          "FM: locked node still in a gain container", v);
        continue;
      }
      audit::check_node(own.contains(v) && !other.contains(v),
                        "FM: free node not in its side's gain container", v);
      const double scratch = part_.immediate_gain(v);
      drift.observe(v, own.gain(v), scratch);
      audit::check_close(own.gain(v), scratch, config_.audit_tolerance,
                         "FM incremental gain", v);
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
  const FmConfig& config_;
  Container side_[2];
  std::vector<std::uint8_t> locked_;
  const bool unit_sizes_;
};

}  // namespace

RefineOutcome fm_refine(Partition& part, const BalanceConstraint& balance,
                        const FmConfig& config) {
  // The bucket array indexes integer gains; weighted nets take the heap —
  // exactly the trade-off the paper discusses in Sec. 4.
  if (config.structure == FmStructure::kBucket &&
      part.graph().unit_net_costs()) {
    return FmPass<BucketContainer>(part, balance, config).refine();
  }
  return FmPass<TreeContainer>(part, balance, config).refine();
}

}  // namespace prop
