// Addressable binary max-heap keyed by gain — the ordered container of
// PROP, of FM under non-unit net costs and of LA.  The paper keeps free
// nodes "in a balanced binary AVL tree" (Sec. 3.5); these engines only ever
// ask their container for the maximum, the top few nodes and the best node
// passing a feasibility test, which one indexed heap per part answers in
// about two thirds of the tree's CPU time (EXPERIMENTS.md, "Gain
// container").
//
// One GainHeap object holds `heaps` independent heaps (default 1) over one
// handle space: each handle (a node id in [0, capacity)) sits in at most
// one of them at a time — k-way PROP keeps one heap per part.  Storage is
// reserved up front and indexed by handle, so no operation allocates
// (except a descending walk of more than 63 visits, which grows its
// frontier once).
//
// Order: key, then join sequence.  Every insert and every update (an
// equal-key update too) gives the handle the heap's next sequence number,
// and assign_sorted numbers its items in array order, so among equal keys
// the most recently joined handle ranks first — the LIFO tie-breaking that
// FM-family implementations traditionally use, and exactly the order of
// the AVL tree this container replaced: that tree rewrote a key in place
// only when no other handle held the new key, and otherwise re-inserted the
// handle as the newest of its equals.  Move sequences, and so every cut,
// are unchanged.
//
// Operations: insert/erase/update O(log n), max O(1), max_if a pruned
// depth-first search, for_each_descending O(m) per visit for a walk of m
// visits (the refiners walk the top five or so).  Verified against a
// std::set reference by property tests (tests/datastruct/gain_heap_test.cpp).
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

namespace prop {

template <typename Key>
class GainHeap {
 public:
  using Handle = std::uint32_t;
  static constexpr Handle kNull = static_cast<Handle>(-1);
  /// tree_of() of a handle that is in no heap.
  static constexpr std::uint16_t kNoTree = static_cast<std::uint16_t>(-1);

  /// `heaps` must be below kNoTree.
  explicit GainHeap(Handle capacity, std::uint32_t heaps = 1)
      : heaps_(heaps),
        next_seq_(heaps, 0),
        pos_(capacity, 0),
        tree_of_(capacity, kNoTree) {
    assert(heaps < kNoTree);
    for (auto& heap : heaps_) heap.reserve(capacity);
    walk_.reserve(kWalkReserve);
  }

  Handle capacity() const noexcept { return static_cast<Handle>(pos_.size()); }
  std::uint32_t size(std::uint32_t t = 0) const noexcept {
    return static_cast<std::uint32_t>(heaps_[t].size());
  }
  bool empty(std::uint32_t t = 0) const noexcept { return heaps_[t].empty(); }
  /// h sits in one of the heaps.
  bool contains(Handle h) const noexcept { return tree_of_[h] != kNoTree; }
  /// The heap h sits in, or kNoTree.
  std::uint16_t tree_of(Handle h) const noexcept { return tree_of_[h]; }
  const Key& key(Handle h) const noexcept {
    return heaps_[tree_of_[h]][pos_[h]].key;
  }

  /// Empties every heap.
  void clear() {
    for (std::uint32_t t = 0; t < heaps_.size(); ++t) drop(t);
  }

  /// Inserts handle h with the given key into heap t as the newest of its
  /// equals.  h must not be present in any heap.
  void insert(Handle h, Key key, std::uint32_t t = 0) {
    assert(!contains(h));
    const std::uint64_t seq = next_seq_[t]++;
    std::vector<Entry>& heap = heaps_[t];
    tree_of_[h] = static_cast<std::uint16_t>(t);
    heap.push_back(Entry{std::move(key), seq, h});
    sift_up(heap, heap.size() - 1);
  }

  /// Removes handle h from its heap.  h must be present.
  void erase(Handle h) {
    assert(contains(h));
    std::vector<Entry>& heap = heaps_[tree_of_[h]];
    const std::size_t pos = pos_[h];
    tree_of_[h] = kNoTree;
    if (pos + 1 == heap.size()) {
      heap.pop_back();
      return;
    }
    heap[pos] = std::move(heap.back());
    heap.pop_back();
    restore(heap, pos);
  }

  /// Changes the key of handle h and makes it the newest of its equals.
  void update(Handle h, Key key) {
    assert(contains(h));
    const std::uint32_t t = tree_of_[h];
    const std::uint64_t seq = next_seq_[t]++;
    std::vector<Entry>& heap = heaps_[t];
    const std::size_t pos = pos_[h];
    heap[pos].key = std::move(key);
    heap[pos].seq = seq;
    restore(heap, pos);
  }

  /// Replaces heap t's contents with `items`, which must be sorted
  /// ascending by key, stably: among equal keys the "newest" handle comes
  /// last.  Items join in array order, so the result is what inserting them
  /// oldest-first would produce, built in O(n): a descending array is a
  /// heap.  This is the pass-start bulk load of the refiners.  The items'
  /// handles must not sit in any other heap.
  void assign_sorted(const std::pair<Key, Handle>* items, std::uint32_t count,
                     std::uint32_t t = 0) {
    drop(t);
    assert(count <= capacity());
    std::vector<Entry>& heap = heaps_[t];
    heap.resize(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::size_t pos = count - 1 - i;
      const Handle h = items[i].second;
      heap[pos] = Entry{items[i].first, i, h};
      pos_[h] = static_cast<Handle>(pos);
      tree_of_[h] = static_cast<std::uint16_t>(t);
    }
    next_seq_[t] = count;
  }

  /// Handle with the maximum key of heap t (ties: most recently joined).
  /// The heap must be non-empty.
  Handle max(std::uint32_t t = 0) const noexcept {
    assert(!empty(t));
    return heaps_[t][0].handle;
  }

  /// The maximum handle of heap t for which `pred(handle)` holds, or kNull.
  /// A depth-first search that stops descending at every handle that passes
  /// (its subtree ranks lower) and skips every subtree whose root ranks
  /// below the best handle found so far.  `pred` must be pure: it may be
  /// asked about handles below the answer, in no particular order.
  template <typename Pred>
  Handle max_if(Pred&& pred, std::uint32_t t = 0) const {
    const std::vector<Entry>& heap = heaps_[t];
    const std::size_t n = heap.size();
    if (n == 0) return kNull;
    // Each expansion pops one position and pushes at most two children, so
    // the stack holds at most one pending sibling per level plus two.
    std::array<Handle, kMaxDepth + 2> stack{};
    std::size_t top = 0;
    stack[top++] = 0;
    std::size_t best = n;
    while (top > 0) {
      const std::size_t pos = stack[--top];
      if (best != n && !ranks_above(heap[pos], heap[best])) continue;
      if (pred(heap[pos].handle)) {
        best = pos;
        continue;
      }
      const std::size_t left = 2 * pos + 1;
      if (left + 1 < n) {
        // The higher child is searched first, so it sets the bound sooner.
        const bool left_first = ranks_above(heap[left], heap[left + 1]);
        stack[top++] = static_cast<Handle>(left_first ? left + 1 : left);
        stack[top++] = static_cast<Handle>(left_first ? left : left + 1);
      } else if (left < n) {
        stack[top++] = static_cast<Handle>(left);
      }
    }
    return best == n ? kNull : heap[best].handle;
  }

  /// Visits heap t's handles in descending order while `visit` returns
  /// true.  A best-first walk: the next handle is the best of a frontier
  /// that starts at the root and swaps each visited handle for its
  /// children.  The frontier is scanned linearly, O(m) per visit for m
  /// visits, which beats a frontier heap on the refiners' top-five walks;
  /// it is preallocated for them.  `visit` must not modify the container,
  /// and the frontier is shared scratch, so walks of one container must
  /// not run concurrently.
  template <typename Visitor>
  void for_each_descending(Visitor&& visit, std::uint32_t t = 0) const {
    const std::vector<Entry>& heap = heaps_[t];
    const std::size_t n = heap.size();
    if (n == 0) return;
    walk_.clear();
    walk_.push_back(0);
    while (!walk_.empty()) {
      std::size_t best = 0;
      for (std::size_t i = 1; i < walk_.size(); ++i) {
        if (ranks_above(heap[walk_[i]], heap[walk_[best]])) best = i;
      }
      const std::size_t pos = walk_[best];
      if (!visit(heap[pos].handle, heap[pos].key)) return;
      const std::size_t left = 2 * pos + 1;
      if (left < n) {
        walk_[best] = static_cast<Handle>(left);
        if (left + 1 < n) walk_.push_back(static_cast<Handle>(left + 1));
      } else {
        walk_[best] = walk_.back();
        walk_.pop_back();
      }
    }
  }

  /// Validation helper for tests: checks heap t's order, position index,
  /// membership, sequence bound and size.  O(capacity).
  bool check_invariants(std::uint32_t t = 0) const {
    const std::vector<Entry>& heap = heaps_[t];
    for (std::size_t pos = 0; pos < heap.size(); ++pos) {
      const Handle h = heap[pos].handle;
      if (h >= capacity() || tree_of_[h] != t || pos_[h] != pos) return false;
      if (heap[pos].seq >= next_seq_[t]) return false;
      if (pos > 0 && ranks_above(heap[pos], heap[(pos - 1) / 2])) return false;
    }
    const auto members = std::count(tree_of_.begin(), tree_of_.end(),
                                    static_cast<std::uint16_t>(t));
    return static_cast<std::size_t>(members) == heap.size();
  }

 private:
  struct Entry {
    Key key;
    std::uint64_t seq;  // 64 bits: never wraps
    Handle handle;
  };

  /// Deepest level of a heap of at most 2^32 entries.
  static constexpr std::size_t kMaxDepth = 32;
  /// Initial frontier room of for_each_descending: a walk of m visits
  /// holds at most m + 1 candidates.
  static constexpr std::size_t kWalkReserve = 64;

  /// a ranks above b: higher key, or equal key and joined later.
  static bool ranks_above(const Entry& a, const Entry& b) noexcept {
    if (b.key < a.key) return true;
    if (a.key < b.key) return false;
    return a.seq > b.seq;
  }

  /// Empties heap t and restarts its sequence.
  void drop(std::uint32_t t) {
    for (const Entry& e : heaps_[t]) tree_of_[e.handle] = kNoTree;
    heaps_[t].clear();
    next_seq_[t] = 0;
  }

  /// Moves the entry at `pos` up or down until the heap is ordered again.
  void restore(std::vector<Entry>& heap, std::size_t pos) {
    if (pos > 0 && ranks_above(heap[pos], heap[(pos - 1) / 2])) {
      sift_up(heap, pos);
    } else {
      sift_down(heap, pos);
    }
  }

  void sift_up(std::vector<Entry>& heap, std::size_t pos) {
    Entry e = std::move(heap[pos]);
    while (pos > 0) {
      const std::size_t parent = (pos - 1) / 2;
      if (!ranks_above(e, heap[parent])) break;
      place(heap, pos, std::move(heap[parent]));
      pos = parent;
    }
    place(heap, pos, std::move(e));
  }

  void sift_down(std::vector<Entry>& heap, std::size_t pos) {
    const std::size_t n = heap.size();
    Entry e = std::move(heap[pos]);
    for (;;) {
      std::size_t child = 2 * pos + 1;
      if (child >= n) break;
      if (child + 1 < n && ranks_above(heap[child + 1], heap[child])) ++child;
      if (!ranks_above(heap[child], e)) break;
      place(heap, pos, std::move(heap[child]));
      pos = child;
    }
    place(heap, pos, std::move(e));
  }

  void place(std::vector<Entry>& heap, std::size_t pos, Entry&& e) noexcept {
    pos_[e.handle] = static_cast<Handle>(pos);
    heap[pos] = std::move(e);
  }

  std::vector<std::vector<Entry>> heaps_;
  std::vector<std::uint64_t> next_seq_;  // per heap
  std::vector<Handle> pos_;    // h's index in its heap
  std::vector<std::uint16_t> tree_of_;
  // for_each_descending's frontier (heap positions), reused across walks.
  mutable std::vector<Handle> walk_;
};

}  // namespace prop
