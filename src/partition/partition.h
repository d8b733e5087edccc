// Mutable 2-way partition state with incremental cut maintenance.
//
// Tracks, for every net, how many of its pins lie on each side; the cutset
// (paper Sec. 1) is the set of nets with pins on both sides, and the cut
// cost is the sum of their costs.  move() updates all of this in
// O(degree(u)) — the workhorse of every iterative-improvement pass here.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hypergraph/hypergraph.h"
#include "partition/balance.h"

namespace prop {

class Partition {
 public:
  /// Creates the all-zeros partition (everything on side 0).
  explicit Partition(const Hypergraph& g);

  /// Creates a partition from explicit side assignments (values 0/1).
  Partition(const Hypergraph& g, std::span<const std::uint8_t> sides);

  const Hypergraph& graph() const noexcept { return *g_; }

  int side(NodeId u) const noexcept { return sides_[u]; }
  const std::vector<std::uint8_t>& sides() const noexcept { return sides_; }

  /// Total node size currently on side s.
  std::int64_t side_size(int s) const noexcept { return side_size_[s]; }

  /// Number of pins of net n on side s.
  std::uint32_t pins_on_side(NetId n, int s) const noexcept {
    return pin_count_[2 * n + s];
  }

  bool is_cut(NetId n) const noexcept {
    return pin_count_[2 * n] > 0 && pin_count_[2 * n + 1] > 0;
  }

  /// KWayState's names for the same state, so ProbGainCalculator<State>
  /// and PropRefiner<State> read one API for every k.  k() is a
  /// compile-time 2.
  static constexpr NodeId k() noexcept { return 2; }
  NodeId part(NodeId u) const noexcept { return sides_[u]; }
  std::int64_t part_size(NodeId p) const noexcept { return side_size_[p]; }
  std::uint32_t pins_in(NetId n, NodeId p) const noexcept {
    return pin_count_[2 * n + p];
  }

  /// Sum of costs of cut nets.
  double cut_cost() const noexcept { return cut_cost_; }

  /// Number of cut nets (the paper's tables report unit-cost cut sizes, so
  /// this equals cut_cost() there).
  std::size_t cut_nets() const noexcept { return cut_nets_; }

  /// Moves node u to the other side, updating sizes, pin counts and cut.
  void move(NodeId u);

  /// Immediate deterministic gain of moving u: decrease in cut cost
  /// (paper Eqn. 1 evaluated via pin counts).  Positive is good.
  double immediate_gain(NodeId u) const noexcept;

  /// Replaces the whole assignment (recomputes all derived state).
  void assign(std::span<const std::uint8_t> sides);

  /// Recomputes cut cost from scratch — validation helper, O(m).
  double recompute_cut_cost() const;

 private:
  void rebuild();

  const Hypergraph* g_;
  std::vector<std::uint8_t> sides_;
  std::vector<std::uint32_t> pin_count_;  // 2 entries per net
  std::int64_t side_size_[2] = {0, 0};
  double cut_cost_ = 0.0;
  std::size_t cut_nets_ = 0;
};

}  // namespace prop
