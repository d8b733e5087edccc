// Probabilistic node-gain computation — the heart of PROP (paper Sec. 3.1),
// for every number of parts k (k = 2 is the paper's bisection; k > 2 is its
// Sec. 5 k-way direction).
//
// Every free node u carries a probability p(u) of being actually moved in
// the current pass.  The gain contributed to u (in part a) by net n for a
// move toward part b is:
//
//   net already touches b, Eqn. 3 (k = 2: the net is cut):
//     g_n(u -> b) = c(n) * [ prod_{x in free(n^a) - u} p(x)
//                            - prod_{y in free(n^b)} p(y) ]
//   net has no pin in b, Eqn. 4 (k = 2: the net lies entirely in a):
//     g_n(u -> b) = -c(n) * (1 - prod_{x in free(n^a) - u} p(x))
//
// with the locked-net rules of Sec. 3.4 (Eqns. 5/6) falling out naturally:
// a locked pin in a part zeroes that part's removal product, because a net
// with a locked pin in p can never be pulled out of p during this pass.
// Empty products are 1, so a cut net where u is the only a-side pin
// contributes the full +c(n), and a single-pin net contributes 0.
//
// ProbGainCalculator<State> reads the partition through State's k(),
// part(u) and pins_in(n, p): Partition (k() is a compile-time 2) for the
// 2-way PROP pass, KWayState for the k-way pass.  Products live at slot
// n * k + p, so the 2-way instantiation indexes 2n + s.
//
// Three engines compute those products (DESIGN.md Sec. 4f):
//
//   * kCached (default): maintains prod[slot] = product of p(v) over free
//     pins of net n in part p with p(v) != 0, plus a zero-factor counter
//     and a cached reciprocal 1/p(v) per node, updated in O(1) per
//     set_probability / lock by multiplication (no divisions on the hot
//     path).  gain(u, b) is then O(degree(u)) and for_each_net_gain is
//     O(|n|) with no per-call product pass; nets with a locked pin in both
//     the source and the target part contribute exactly zero and are
//     skipped outright.  Floating-point drift from the incremental updates
//     is bounded by epoch renormalization: after kDefaultRenormInterval
//     updates of a slot — or whenever its product leaves
//     [kRenormMagLo, kRenormMagHi] or stops being finite — the product is
//     recomputed exactly from the pins.
//   * kScratch: recomputes every product on demand by iterating the net's
//     pins.  O(degree * netsize) per gain query and drift-free; kept
//     compiled-in as the audit oracle (audit_consistency, tests, the
//     gain-kernel benchmark baseline).
//   * kShadow: the equivalence harness.  Answers every query through the
//     scratch code path — so a kShadow run makes move-for-move identical
//     decisions to a kScratch run — while still performing the full cached
//     maintenance and cross-checking the cache against the scratch answer
//     at every gain query (throws std::logic_error past kProductAuditTol).
//     This is how "the cached engine reproduces the scratch engine's cuts
//     exactly" is made a testable statement: the cached *fast* read path
//     agrees with scratch only within the drift bound, and ulp-level
//     differences feed back through probabilities chaotically, so exact
//     trajectory equality is asserted in shadow mode (see DESIGN.md 4f).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "hypergraph/hypergraph.h"
#include "partition/partition.h"

namespace prop {

class KWayState;

/// Which product engine a ProbGainCalculator uses (see file comment).
enum class GainEngine {
  kCached,   ///< incremental per-(net, part) products, O(1) updates
  kScratch,  ///< on-demand pin iteration — exact, slow, the audit oracle
  kShadow,   ///< scratch answers + cached maintenance + per-query cross-check
};

const char* to_string(GainEngine engine) noexcept;

/// A partition state whose part count is a compile-time 2 (Partition).
/// The 2-way conveniences (other-side gain, removal probability) require
/// it.
template <typename State>
concept TwoWayState = (State::k() == 2);

template <typename State>
class ProbGainCalculator {
 public:
  /// Default epoch length: a (net, part) product is recomputed exactly
  /// after this many incremental multiply/divide updates.  Each update
  /// contributes ~1 ulp of relative error, so drift per epoch stays around
  /// 128 * 2^-52 ~ 3e-14 — orders of magnitude inside kProductAuditTol.
  static constexpr int kDefaultRenormInterval = 128;

  /// Magnitude window outside which a product is renormalized immediately
  /// (underflow toward 0 or drift above 1 would otherwise poison later
  /// divisions).  Probabilities lie in [0, 1] and zero factors are counted
  /// separately, so legitimate products essentially never leave the window.
  static constexpr double kRenormMagLo = 1e-120;
  static constexpr double kRenormMagHi = 1e120;

  /// audit_consistency / kShadow cross-check tolerance on
  /// |cached - scratch| products and gains.  Drift between
  /// renormalizations is ~#updates * ulp; this bound is orders of
  /// magnitude above that but far below anything gain-relevant.
  static constexpr double kProductAuditTol = 1e-9;

  explicit ProbGainCalculator(const State& state,
                              GainEngine engine = GainEngine::kCached,
                              int renorm_interval = kDefaultRenormInterval);

  GainEngine engine() const noexcept { return engine_; }

  /// Unlocks everything; probabilities must then be (re)initialized by the
  /// caller via set_probability.  Must also be called after any state move
  /// performed outside lock/move_locked bookkeeping.
  void reset();

  bool is_free(NodeId u) const noexcept { return locked_[u] == 0; }
  double probability(NodeId u) const noexcept { return p_[u]; }

  /// Sets p(u); u must be free (locked nodes stay at p = 0) and p in
  /// [0, 1] (NaN is rejected).  O(degree(u)) under the cached engine, O(1)
  /// under scratch.
  void set_probability(NodeId u, double p);

  /// Locks u: p(u) := 0 (paper Sec. 3.4).  Call BEFORE moving u in the
  /// state so the lock lands on u's current part.
  void lock(NodeId u);

  /// Records that locked node u moved from `from` to its current part
  /// (call after the state's move).
  void move_locked(NodeId u, NodeId from);

  /// Probabilistic gain of moving u to part `to` (!= u's part): the sum
  /// over u's nets of g_n(u -> to).  O(degree(u)) cached,
  /// O(degree(u) * netsize) scratch.  Shadow returns the scratch answer
  /// after asserting the cached one agrees within kProductAuditTol
  /// (std::logic_error otherwise).
  double gain(NodeId u, NodeId to) const;

  /// gain(u, to) toward every part other than u's, in ascending part order,
  /// into out[0 .. k-2].  Under kCached one pass over u's nets serves every
  /// target; the other engines answer per target through gain().
  void gains(NodeId u, double* out) const;

  /// 2-way: gain of moving u to the other side.
  double gain(NodeId u) const
    requires TwoWayState<State>
  {
    return gain(u, 1 - state_->part(u));
  }

  /// Gain restricted to one net, always computed from scratch by explicit
  /// pin iteration — the reference oracle for tests, the Figure 1
  /// walkthrough and the property suite.
  double net_gain(NodeId u, NetId n, NodeId to) const;

  /// 2-way: net_gain toward the other side.
  double net_gain(NodeId u, NetId n) const
    requires TwoWayState<State>
  {
    return net_gain(u, n, 1 - state_->part(u));
  }

  /// From-scratch total gain (sum of net_gain over u's nets) regardless of
  /// the configured engine — the oracle the cached engine is audited
  /// against.
  double scratch_gain(NodeId u, NodeId to) const;

  /// Emits (v, to, g_n(v -> to)) for every FREE pin v of net n and every
  /// target part to != part(v), in O(|n| * (k - 1)) after an O(k) per-part
  /// preamble.  The cached engine reads the part products straight from
  /// the cache, excludes each pin's own probability by multiplying with its
  /// cached reciprocal, and skips frozen pairs (locked pins in both v's
  /// part and the target: the contribution is exactly 0) without emitting.
  /// The scratch/shadow engines compute the products with one pin pass and
  /// divide each pin's probability back out — the legacy cost model — and
  /// emit every pair, zero contributions included.  Summing a pair's
  /// emissions over v's nets equals gain(v, to); the net-major bootstrap
  /// sweep accumulates it over all nets, and the PROP pass takes
  /// before/after deltas of it per net touched by a move
  /// (for_each_net_gain_change).  Non-const: the per-part preamble lands
  /// in a reused workspace.
  template <typename Emit>
  void for_each_net_gain(NetId n, Emit&& emit) {
    // The per-part view lives on the stack when k is a compile-time 2, so
    // it stays in registers across emit calls.
    NetPart two_parts[2];
    NetPart* parts = TwoWayState<State> ? two_parts : net_parts_.data();
    if (engine_ == GainEngine::kCached) {
      emit_net_gains<true>(n, parts, emit);
    } else {
      emit_net_gains<false>(n, parts, emit);
    }
  }

  /// One part's view of a net, as the per-net gain emission reads it.
  struct NetPart {
    double prod;           // product of nonzero free-pin p
    double removal;        // prod, or 0 if blocked / a free pin has p == 0
    std::uint32_t zeros;   // free pins with p == 0
    bool blocked;          // the part holds a locked pin
    bool present;          // the part holds any pin of the net
  };

  /// Locked pins of net n in part p.
  std::uint32_t locked_pins(NetId n, NodeId p) const noexcept {
    return locked_pins_[slot(n, p)];
  }

  /// Net n's k per-part views into parts[0 .. k), from the same source as
  /// for_each_net_gain: the cache under kCached, one pin pass under
  /// kScratch/kShadow.
  void net_view(NetId n, NetPart* parts) const {
    if (engine_ == GainEngine::kCached) {
      fill_view<true>(n, parts);
    } else {
      fill_view<false>(n, parts);
    }
  }

  /// for_each_net_gain before and after one change of the state, in one
  /// pin pass: `before` holds net n's net_view() taken before the change,
  /// and the after views are read now.  For each free pin v and target b in
  /// for_each_net_gain's order, calls emit_before(v, b, g) with the old
  /// contribution and then emit_after(v, b, g) with the new one.  Every
  /// value is bit-identical to what for_each_net_gain emits in that state.
  /// The change must only add locked pins (a lock, then moves of locked
  /// nodes): then a pair frozen before is frozen after, so the after
  /// emissions are a subset of the before ones and each follows its
  /// pair's before emission.
  template <typename Before, typename After>
  void for_each_net_gain_change(NetId n, const NetPart* before,
                                Before&& emit_before, After&& emit_after) {
    NetPart two_before[2];
    NetPart two_after[2];
    if constexpr (TwoWayState<State>) {
      two_before[0] = before[0];
      two_before[1] = before[1];
      before = two_before;
    }
    NetPart* after = TwoWayState<State> ? two_after : net_parts_.data();
    if (engine_ == GainEngine::kCached) {
      emit_net_gain_changes<true>(n, before, after, emit_before, emit_after);
    } else {
      emit_net_gain_changes<false>(n, before, after, emit_before, emit_after);
    }
  }

  /// 2-way only.  P(net n is removed from the cut toward side `to`): the
  /// product of p over free pins of n on the *other* side, 0 if that side
  /// has a locked pin.  This is the paper's p(n^{1->2}) / p(n^{2->1}).
  double removal_probability(NetId n, NodeId to) const
    requires TwoWayState<State>;

  /// Recomputes every cached (net, part) product and zero counter exactly
  /// from the pins and restarts all renormalization epochs.  Immediately
  /// afterwards the cache is bit-identical to a scratch in-pin-order
  /// recompute.  No-op under the scratch engine.  O(pins * k).
  void renormalize_all();

  /// Max |cached product - scratch recompute| over all (net, part) slots;
  /// 0 under the scratch engine.  O(pins * k); telemetry/test instrument.
  double max_product_drift() const;

  /// Debug invariant audit: recounts the per-(net, part) locked-pin table
  /// from the lock flags and the state, checks probability bounds
  /// (locked => p == 0, free => p in [0, 1]) and — when the cache is
  /// maintained (kCached/kShadow) — cross-checks every zero-factor counter
  /// and cached reciprocal exactly and every cached product against the
  /// scratch oracle within kProductAuditTol.  Throws std::logic_error on
  /// any mismatch.  O(pins * k); used by PROP's audit_interval mode.
  void audit_consistency() const;

 private:
  std::size_t slot(NetId n, NodeId p) const noexcept {
    return static_cast<std::size_t>(n) * state_->k() + p;
  }

  bool part_locked(NetId n, NodeId p) const noexcept {
    return locked_pins_[slot(n, p)] > 0;
  }

  /// Both kCached and kShadow keep the incremental product state up to
  /// date; only kCached *answers* queries from it.
  bool maintains_cache() const noexcept {
    return engine_ != GainEngine::kScratch;
  }

  /// gain(u, to) computed from the cached products — the kCached fast
  /// path, and the value kShadow cross-checks against the scratch answer.
  double cached_gain(NodeId u, NodeId to) const;

  /// Sums the cached-product gains of u toward target_of(j), j < count,
  /// into out[j] — one pass over u's nets shared by every target.
  template <typename TargetOf>
  void sum_cached_gains(NodeId u, NodeId count, TargetOf target_of,
                        double* out) const;

  /// Fills net n's k per-part views.  The cached engine reads the part
  /// products from the cache; the scratch form multiplies them out of the
  /// pins.
  template <bool kCachedEngine>
  void fill_view(NetId n, NetPart* parts) const {
    const State& state = *state_;
    const NodeId k = state.k();
    for (NodeId p = 0; p < k; ++p) {
      NetPart& part = parts[p];
      part.blocked = part_locked(n, p);
      part.present = state.pins_in(n, p) > 0;
      part.prod = kCachedEngine ? prod_[slot(n, p)] : 1.0;
      part.zeros = kCachedEngine ? zero_free_[slot(n, p)] : 0;
    }
    if (!kCachedEngine) {
      for (const NodeId v : state.graph().pins_of(n)) {
        if (locked_[v]) continue;
        NetPart& part = parts[state.part(v)];
        if (p_[v] == 0.0) {
          ++part.zeros;
        } else {
          part.prod *= p_[v];
        }
      }
    }
    for (NodeId p = 0; p < k; ++p) {
      NetPart& part = parts[p];
      part.removal = (part.blocked || part.zeros > 0) ? 0.0 : part.prod;
    }
  }

  /// Product of p over the free pins of v's part `own` other than v; 0 once
  /// the part holds a locked pin or another zero-probability pin.  The
  /// cached engine excludes v's factor with its cached reciprocal, the
  /// scratch form divides it back out.
  template <bool kCachedEngine>
  double excluding(const NetPart& own, NodeId v) const noexcept {
    if (own.blocked) return 0.0;
    if (p_[v] == 0.0) return own.zeros > 1 ? 0.0 : own.prod;
    if (own.zeros > 0) return 0.0;
    return kCachedEngine ? own.prod * recip_[v] : own.prod / p_[v];
  }

  /// g_n(v -> b) from c(n), v's excluding() product and b's view.
  static double pair_gain(double c, double prod_a_excl,
                          const NetPart& target) noexcept {
    // Eqn. 3 (k = 2: the net is cut).
    if (target.present) return c * (prod_a_excl - target.removal);
    // Eqn. 4: no pin in b yet (k = 2: the net lies on v's side).
    return -c * (1.0 - prod_a_excl);
  }

  /// for_each_net_gain's body over a k-entry per-part workspace.  The
  /// cached engine skips frozen pairs (locked pins in both v's part and the
  /// target); the scratch form emits every pair.
  template <bool kCachedEngine, typename Emit>
  void emit_net_gains(NetId n, NetPart* parts, Emit& emit) const {
    fill_view<kCachedEngine>(n, parts);
    const State& state = *state_;
    const NodeId k = state.k();
    const double c = state.graph().net_cost(n);
    for (const NodeId v : state.graph().pins_of(n)) {
      if (locked_[v]) continue;
      const NodeId a = state.part(v);
      const NetPart& own = parts[a];
      const double prod_a_excl = excluding<kCachedEngine>(own, v);
      for (NodeId j = 0; j + 1 < k; ++j) {
        const NodeId b = j < a ? j : j + 1;
        if (kCachedEngine && own.blocked && parts[b].blocked) continue;
        emit(v, b, pair_gain(c, prod_a_excl, parts[b]));
      }
    }
  }

  /// for_each_net_gain_change's body: `after` is the workspace the current
  /// views land in.
  template <bool kCachedEngine, typename Before, typename After>
  void emit_net_gain_changes(NetId n, const NetPart* before, NetPart* after,
                             Before& emit_before, After& emit_after) const {
    fill_view<kCachedEngine>(n, after);
    const State& state = *state_;
    const NodeId k = state.k();
    const double c = state.graph().net_cost(n);
    for (const NodeId v : state.graph().pins_of(n)) {
      if (locked_[v]) continue;
      const NodeId a = state.part(v);
      const double was = excluding<kCachedEngine>(before[a], v);
      const double now = excluding<kCachedEngine>(after[a], v);
      for (NodeId j = 0; j + 1 < k; ++j) {
        const NodeId b = j < a ? j : j + 1;
        // Frozen before implies frozen after: locks only accumulate.
        if (kCachedEngine && before[a].blocked && before[b].blocked) continue;
        emit_before(v, b, pair_gain(c, was, before[b]));
        if (kCachedEngine && after[a].blocked && after[b].blocked) continue;
        emit_after(v, b, pair_gain(c, now, after[b]));
      }
    }
  }

  /// Applies one factor change old_p -> new_p to the (net, part) slot —
  /// old_r is the cached reciprocal of old_p, so the removal is a multiply
  /// — and renormalizes when the epoch expires or the product degenerates.
  void update_factor(NetId n, NodeId p, double old_p, double old_r,
                     double new_p);

  /// Exact recompute of one (net, part) product/zero counter from the pins.
  void renormalize_slot(NetId n, NodeId p);

  /// Scratch recompute of (product of nonzero free-pin p, zero count) for
  /// one part of a net, multiplying in pin order (the renormalized cache is
  /// bit-identical to this).
  void scratch_part(NetId n, NodeId p, double& prod,
                    std::uint32_t& zeros) const;

  const State* state_;
  GainEngine engine_;
  int renorm_interval_;
  std::vector<double> p_;
  std::vector<std::uint8_t> locked_;
  std::vector<std::uint32_t> locked_pins_;  // locked pins per (net, part)

  // Cached-engine state; unused (empty) under kScratch.  prod_, zero_free_
  // and updates_ have one slot per (net, part); recip_ caches 1/p per node
  // so factor removal and pin exclusion are multiplies, not divides.
  std::vector<double> prod_;           // product of nonzero free-pin p
  std::vector<std::uint32_t> zero_free_;  // free pins with p == 0
  std::vector<std::uint32_t> updates_;    // incremental updates this epoch
  std::vector<double> recip_;          // 1/p, 0 where p == 0

  std::vector<NetPart> net_parts_;  // for_each_net_gain workspace, k entries
};

// ---------------------------------------------------------------------------
// Member definitions.  Both instantiations are explicit: prop_core compiles
// Partition (core/prob_gain.cpp), prop_kway compiles KWayState
// (kway/kway_prop_refiner.cpp).

template <typename State>
ProbGainCalculator<State>::ProbGainCalculator(const State& state,
                                              GainEngine engine,
                                              int renorm_interval)
    : state_(&state),
      engine_(engine),
      renorm_interval_(renorm_interval < 1 ? 1 : renorm_interval),
      net_parts_(state.k()) {
  reset();
}

template <typename State>
void ProbGainCalculator<State>::reset() {
  const Hypergraph& g = state_->graph();
  const std::size_t slots =
      static_cast<std::size_t>(g.num_nets()) * state_->k();
  p_.assign(g.num_nodes(), 0.0);
  locked_.assign(g.num_nodes(), 0);
  locked_pins_.assign(slots, 0);
  if (maintains_cache()) {
    // Everything is free with p = 0, so each part's product is an empty
    // product of nonzero factors (1) and the zero counter is the part's
    // full pin count.
    prod_.assign(slots, 1.0);
    zero_free_.resize(slots);
    updates_.assign(slots, 0);
    recip_.assign(g.num_nodes(), 0.0);
    for (NetId n = 0; n < g.num_nets(); ++n) {
      for (NodeId p = 0; p < state_->k(); ++p) {
        zero_free_[slot(n, p)] = state_->pins_in(n, p);
      }
    }
  }
}

template <typename State>
void ProbGainCalculator<State>::scratch_part(NetId n, NodeId p, double& prod,
                                             std::uint32_t& zeros) const {
  prod = 1.0;
  zeros = 0;
  for (const NodeId v : state_->graph().pins_of(n)) {
    if (locked_[v] || state_->part(v) != p) continue;
    if (p_[v] == 0.0) {
      ++zeros;
    } else {
      prod *= p_[v];
    }
  }
}

template <typename State>
void ProbGainCalculator<State>::renormalize_slot(NetId n, NodeId p) {
  scratch_part(n, p, prod_[slot(n, p)], zero_free_[slot(n, p)]);
  updates_[slot(n, p)] = 0;
}

template <typename State>
void ProbGainCalculator<State>::renormalize_all() {
  if (!maintains_cache()) return;
  const NetId nets = state_->graph().num_nets();
  for (NetId n = 0; n < nets; ++n) {
    for (NodeId p = 0; p < state_->k(); ++p) renormalize_slot(n, p);
  }
}

template <typename State>
void ProbGainCalculator<State>::update_factor(NetId n, NodeId p, double old_p,
                                              double old_r, double new_p) {
  const std::size_t s = slot(n, p);
  if (old_p == 0.0) {
    --zero_free_[s];
  } else {
    prod_[s] *= old_r;  // remove the old factor: multiply by 1/old_p
  }
  if (new_p == 0.0) {
    ++zero_free_[s];
  } else {
    prod_[s] *= new_p;
  }
  // Epoch renormalization: bound drift after renorm_interval_ incremental
  // updates, and rescue a product that left the sane-magnitude window (the
  // !(a && b) form also catches NaN).
  const double prod = prod_[s];
  if (static_cast<int>(++updates_[s]) >= renorm_interval_ ||
      !(prod >= kRenormMagLo && prod <= kRenormMagHi)) {
    renormalize_slot(n, p);
  }
}

template <typename State>
void ProbGainCalculator<State>::set_probability(NodeId u, double p) {
  if (locked_[u]) throw std::logic_error("prob gain: node is locked");
  // Written so that NaN fails the check too.
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument("prob gain: p out of [0,1]");
  }
  const double old_p = p_[u];
  // Commit the node's new state before touching the per-net cache: an epoch
  // renormalization firing inside update_factor recomputes from p_/locked_,
  // which must already describe the post-update world.
  p_[u] = p;
  if (maintains_cache()) {
    const double old_r = recip_[u];
    recip_[u] = p == 0.0 ? 0.0 : 1.0 / p;
    if (p != old_p) {
      const NodeId a = state_->part(u);
      for (const NetId n : state_->graph().nets_of(u)) {
        update_factor(n, a, old_p, old_r, p);
      }
    }
  }
}

template <typename State>
void ProbGainCalculator<State>::lock(NodeId u) {
  if (locked_[u]) throw std::logic_error("prob gain: node already locked");
  const NodeId a = state_->part(u);
  const double old_p = p_[u];
  // As in set_probability: flag the lock first so a renormalization inside
  // update_factor already excludes u from the free products.
  locked_[u] = 1;
  p_[u] = 0.0;
  if (maintains_cache()) {
    const double old_r = recip_[u];
    recip_[u] = 0.0;
    for (const NetId n : state_->graph().nets_of(u)) {
      ++locked_pins_[slot(n, a)];
      // Remove u's factor from the part's free product (a locked pin no
      // longer participates); the 1.0 "new factor" is the identity.
      update_factor(n, a, old_p, old_r, 1.0);
    }
  } else {
    for (const NetId n : state_->graph().nets_of(u)) {
      ++locked_pins_[slot(n, a)];
    }
  }
}

template <typename State>
void ProbGainCalculator<State>::move_locked(NodeId u, NodeId from) {
  if (!locked_[u]) {
    throw std::logic_error("prob gain: moved node must be locked");
  }
  const NodeId to = state_->part(u);
  // Locked pins are outside every free product, so only the locked-pin
  // table moves parts.
  for (const NetId n : state_->graph().nets_of(u)) {
    --locked_pins_[slot(n, from)];
    ++locked_pins_[slot(n, to)];
  }
}

template <typename State>
void ProbGainCalculator<State>::audit_consistency() const {
  const Hypergraph& g = state_->graph();
  std::vector<std::uint32_t> recount(
      static_cast<std::size_t>(g.num_nets()) * state_->k(), 0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (locked_[u]) {
      if (p_[u] != 0.0) {
        throw std::logic_error("prob gain audit: locked node with p != 0");
      }
      const NodeId a = state_->part(u);
      for (const NetId n : g.nets_of(u)) ++recount[slot(n, a)];
    } else if (!(p_[u] >= 0.0 && p_[u] <= 1.0)) {
      throw std::logic_error("prob gain audit: free probability out of [0,1]");
    }
  }
  if (recount != locked_pins_) {
    throw std::logic_error(
        "prob gain audit: locked-pin counts diverged from scratch recount");
  }
  if (!maintains_cache()) return;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const double want = p_[u] == 0.0 ? 0.0 : 1.0 / p_[u];
    if (recip_[u] != want) {
      throw std::logic_error(
          "prob gain audit: cached reciprocal out of sync with p");
    }
  }
  for (NetId n = 0; n < g.num_nets(); ++n) {
    for (NodeId p = 0; p < state_->k(); ++p) {
      double prod;
      std::uint32_t zeros;
      scratch_part(n, p, prod, zeros);
      if (zeros != zero_free_[slot(n, p)]) {
        std::ostringstream msg;
        msg << "prob gain audit: zero-factor counter diverged (net " << n
            << " part " << p << "): cached " << zero_free_[slot(n, p)]
            << " vs recount " << zeros;
        throw std::logic_error(msg.str());
      }
      const double cached = prod_[slot(n, p)];
      if (!(std::abs(cached - prod) <= kProductAuditTol)) {
        std::ostringstream msg;
        msg << "prob gain audit: cached product drifted (net " << n
            << " part " << p << "): cached " << cached << " vs scratch "
            << prod;
        throw std::logic_error(msg.str());
      }
    }
  }
}

template <typename State>
double ProbGainCalculator<State>::max_product_drift() const {
  if (!maintains_cache()) return 0.0;
  double max_abs = 0.0;
  const NetId nets = state_->graph().num_nets();
  for (NetId n = 0; n < nets; ++n) {
    for (NodeId p = 0; p < state_->k(); ++p) {
      double prod;
      std::uint32_t zeros;
      scratch_part(n, p, prod, zeros);
      const double d = std::abs(prod_[slot(n, p)] - prod);
      if (d > max_abs) max_abs = d;
    }
  }
  return max_abs;
}

template <typename State>
double ProbGainCalculator<State>::removal_probability(NetId n,
                                                      NodeId to) const
  requires TwoWayState<State>
{
  const NodeId from = 1 - to;
  if (part_locked(n, from)) return 0.0;
  const double cached =
      maintains_cache() && zero_free_[slot(n, from)] == 0
          ? prod_[slot(n, from)]
          : 0.0;
  if (engine_ == GainEngine::kCached) return cached;
  double prod = 1.0;
  for (const NodeId v : state_->graph().pins_of(n)) {
    if (state_->part(v) == from) prod *= p_[v];
  }
  if (engine_ == GainEngine::kShadow &&
      !(std::abs(cached - prod) <= kProductAuditTol)) {
    std::ostringstream msg;
    msg << "prob gain shadow: removal probability diverged (net " << n
        << " to " << to << "): cached " << cached << " vs scratch " << prod;
    throw std::logic_error(msg.str());
  }
  return prod;
}

template <typename State>
double ProbGainCalculator<State>::net_gain(NodeId u, NetId n,
                                           NodeId to) const {
  const State& state = *state_;
  const double c = state.graph().net_cost(n);
  const NodeId a = state.part(u);

  // Product of p over free a-part pins other than u; 0 if a holds a locked
  // pin (the net then can never leave a this pass).  Same for the target.
  double prod_a = 1.0;
  const bool a_blocked = part_locked(n, a);
  double prod_b = 1.0;
  const bool b_blocked = part_locked(n, to);
  for (const NodeId v : state.graph().pins_of(n)) {
    if (v == u) continue;
    const NodeId pv = state.part(v);
    if (pv == a) {
      prod_a *= p_[v];  // locked pins have p = 0, blocking the product too
    } else if (pv == to) {
      prod_b *= p_[v];
    }
  }
  if (a_blocked) prod_a = 0.0;
  if (b_blocked) prod_b = 0.0;

  if (state.pins_in(n, to) > 0) {
    // Eqn. 3: moving u helps complete the a -> to evacuation and precludes
    // the to -> a one.
    return c * (prod_a - prod_b);
  }
  // No pin in the target yet (k = 2: the net lies entirely in a).  Eqn. 4:
  // moving u spreads the net into a new part; it stays spread unless
  // everyone else in a follows.
  return -c * (1.0 - prod_a);
}

template <typename State>
double ProbGainCalculator<State>::scratch_gain(NodeId u, NodeId to) const {
  double total = 0.0;
  for (const NetId n : state_->graph().nets_of(u)) {
    total += net_gain(u, n, to);
  }
  return total;
}

template <typename State>
template <typename TargetOf>
void ProbGainCalculator<State>::sum_cached_gains(NodeId u, NodeId count,
                                                 TargetOf target_of,
                                                 double* out) const {
  const State& state = *state_;
  const Hypergraph& g = state.graph();
  const NodeId a = state.part(u);
  const double pu = p_[u];
  const double ru = recip_[u];
  std::fill_n(out, count, 0.0);
  for (const NetId n : g.nets_of(u)) {
    const bool a_blocked = part_locked(n, a);
    const double c = g.net_cost(n);
    double prod_a_excl;
    if (a_blocked) {
      prod_a_excl = 0.0;
    } else {
      const std::uint32_t zeros_a = zero_free_[slot(n, a)];
      if (pu == 0.0) {
        prod_a_excl = zeros_a > 1 ? 0.0 : prod_[slot(n, a)];
      } else {
        prod_a_excl = zeros_a > 0 ? 0.0 : prod_[slot(n, a)] * ru;
      }
    }
    for (NodeId j = 0; j < count; ++j) {
      const NodeId to = target_of(j);
      // Frozen pair (locked pins in both the source and the target part):
      // both removal products are 0 — contributes exactly nothing.
      if (a_blocked && part_locked(n, to)) continue;
      if (state.pins_in(n, to) > 0) {
        const double prod_b =
            (part_locked(n, to) || zero_free_[slot(n, to)] > 0)
                ? 0.0
                : prod_[slot(n, to)];
        out[j] += c * (prod_a_excl - prod_b);
      } else {
        out[j] += -c * (1.0 - prod_a_excl);
      }
    }
  }
}

template <typename State>
double ProbGainCalculator<State>::cached_gain(NodeId u, NodeId to) const {
  double total;
  sum_cached_gains(u, 1, [to](NodeId) { return to; }, &total);
  return total;
}

template <typename State>
void ProbGainCalculator<State>::gains(NodeId u, double* out) const {
  const NodeId a = state_->part(u);
  const auto target_of = [a](NodeId j) { return j < a ? j : j + 1; };
  const NodeId count = state_->k() - 1;
  if (engine_ == GainEngine::kCached) {
    sum_cached_gains(u, count, target_of, out);
    return;
  }
  for (NodeId j = 0; j < count; ++j) out[j] = gain(u, target_of(j));
}

template <typename State>
double ProbGainCalculator<State>::gain(NodeId u, NodeId to) const {
  switch (engine_) {
    case GainEngine::kCached:
      return cached_gain(u, to);
    case GainEngine::kScratch:
      return scratch_gain(u, to);
    case GainEngine::kShadow:
      break;
  }
  // Shadow: answer from scratch so the trajectory is identical to the
  // scratch engine's, but cross-check the cache on every query.
  const double scratch = scratch_gain(u, to);
  const double cached = cached_gain(u, to);
  if (!(std::abs(cached - scratch) <= kProductAuditTol)) {
    std::ostringstream msg;
    msg << "prob gain shadow: gain diverged (node " << u << " to " << to
        << "): cached " << cached << " vs scratch " << scratch;
    throw std::logic_error(msg.str());
  }
  return scratch;
}

extern template class ProbGainCalculator<Partition>;
extern template class ProbGainCalculator<KWayState>;

}  // namespace prop
