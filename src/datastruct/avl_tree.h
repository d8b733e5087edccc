// Handle-based AVL tree keyed by gain — the ordered container the paper
// prescribes for PROP and for FM under non-unit net costs ("we ... store
// nodes, according to their gains, in a balanced binary AVL tree",
// Sec. 3.5).
//
// One AvlTree object holds `trees` independent trees (default 1) over one
// handle space: each handle (a node id in [0, capacity)) sits in at most
// one of them at a time, so the trees share one node array — k-way PROP
// keeps one tree per part at the memory of a single tree.  All storage is
// in flat arrays indexed by handle, so there is no per-operation
// allocation.  Duplicate keys are allowed; among equal keys the most
// recently inserted handle is returned first by max(), giving the LIFO
// tie-breaking that FM-family implementations traditionally use.
//
// Operations: insert/erase/update O(log n), max O(log n), descending
// iteration O(log n) per step.  Verified against std::multiset by property
// tests (tests/datastruct/avl_tree_test.cpp).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

namespace prop {

template <typename Key>
class AvlTree {
 public:
  using Handle = std::uint32_t;
  static constexpr Handle kNull = static_cast<Handle>(-1);
  /// tree_of() of a handle that is in no tree.
  static constexpr std::uint16_t kNoTree = static_cast<std::uint16_t>(-1);

  /// `trees` must be below kNoTree.
  explicit AvlTree(Handle capacity, std::uint32_t trees = 1)
      : nodes_(capacity, Node{Key(), kNull, kNull, kNull, 0}),
        tree_of_(capacity, kNoTree),
        roots_(trees) {
    assert(trees < kNoTree);
  }

  Handle capacity() const noexcept { return static_cast<Handle>(nodes_.size()); }
  std::uint32_t size(std::uint32_t t = 0) const noexcept {
    return roots_[t].size;
  }
  bool empty(std::uint32_t t = 0) const noexcept {
    return roots_[t].size == 0;
  }
  /// h sits in one of the trees.
  bool contains(Handle h) const noexcept { return tree_of_[h] != kNoTree; }
  /// The tree h sits in, or kNoTree.
  std::uint16_t tree_of(Handle h) const noexcept { return tree_of_[h]; }
  const Key& key(Handle h) const noexcept { return nodes_[h].key; }

  /// Empties every tree.
  void clear() {
    std::fill(tree_of_.begin(), tree_of_.end(), kNoTree);
    std::fill(roots_.begin(), roots_.end(), Root{});
  }

  /// Inserts handle h with the given key into tree t.  h must not be
  /// present in any tree.
  void insert(Handle h, Key key, std::uint32_t t = 0) {
    assert(!contains(h));
    nodes_[h].key = std::move(key);
    nodes_[h].left = nodes_[h].right = kNull;
    nodes_[h].height = 1;
    tree_of_[h] = static_cast<std::uint16_t>(t);
    Root& r = roots_[t];
    ++r.size;
    // Maintain the O(1) max: a new key >= the current max becomes the
    // rightmost node (ties descend right), i.e. the new max.
    if (r.max == kNull || !(nodes_[h].key < nodes_[r.max].key)) r.max = h;
    if (r.root == kNull) {
      nodes_[h].parent = kNull;
      r.root = h;
      return;
    }
    Handle cur = r.root;
    for (;;) {
      // Ties descend right so the newest equal-key handle is rightmost,
      // i.e. returned first by max().
      if (nodes_[h].key < nodes_[cur].key) {
        if (nodes_[cur].left == kNull) {
          nodes_[cur].left = h;
          break;
        }
        cur = nodes_[cur].left;
      } else {
        if (nodes_[cur].right == kNull) {
          nodes_[cur].right = h;
          break;
        }
        cur = nodes_[cur].right;
      }
    }
    nodes_[h].parent = cur;
    rebalance_up(cur);
  }

  /// Removes handle h from its tree.  h must be present.
  void erase(Handle h) {
    assert(contains(h));
    Root& r = roots_[tree_of_[h]];
    // The max's predecessor (computed while h is still linked) becomes the
    // new max; the max has no right child, so it never hits the two-child
    // splice below.
    if (h == r.max) r.max = prev(h);
    Handle rebalance_from = kNull;
    if (nodes_[h].left != kNull && nodes_[h].right != kNull) {
      // Two children: splice in the successor (min of right subtree).
      Handle s = nodes_[h].right;
      while (nodes_[s].left != kNull) s = nodes_[s].left;
      rebalance_from = (nodes_[s].parent == h) ? s : nodes_[s].parent;
      // Detach s from its parent (s has no left child).
      if (nodes_[s].parent != h) {
        set_child(nodes_[s].parent, s, nodes_[s].right);
        nodes_[s].right = nodes_[h].right;
        nodes_[nodes_[s].right].parent = s;
      }
      // Put s where h was.
      nodes_[s].left = nodes_[h].left;
      if (nodes_[s].left != kNull) nodes_[nodes_[s].left].parent = s;
      replace_at_parent(h, s);
      nodes_[s].height = nodes_[h].height;
    } else {
      const Handle child = (nodes_[h].left != kNull) ? nodes_[h].left : nodes_[h].right;
      rebalance_from = nodes_[h].parent;
      replace_at_parent(h, child);
    }
    tree_of_[h] = kNoTree;
    --r.size;
    if (rebalance_from != kNull) rebalance_up(rebalance_from);
  }

  /// Changes the key of handle h.  Fast path: when the new key still falls
  /// *strictly* between h's in-order neighbors, h's position in the ordered
  /// sequence is unchanged and the key is rewritten in place — no structural
  /// change, no rebalancing.  The strict bounds mean no other handle holds
  /// the new key, so LIFO tie order is unaffected; ties (and genuine
  /// reorderings) fall back to erase + insert.  This is the hot operation of
  /// the refiners' delta updates, where most gain changes are small.
  void update(Handle h, Key key) {
    assert(contains(h));
    const Handle p = prev(h);
    if (p == kNull || nodes_[p].key < key) {
      const Handle s = next(h);
      if (s == kNull || key < nodes_[s].key) {
        // In-order position (and hence the max handle) is unchanged.
        nodes_[h].key = std::move(key);
        return;
      }
    }
    const std::uint32_t t = tree_of_[h];
    erase(h);
    insert(h, std::move(key), t);
  }

  /// Rebuilds the whole tree as the perfectly height-balanced BST over
  /// `items`, which must be sorted ascending by key, stably: among equal
  /// keys the "newest" handle comes last.  The in-order sequence (and hence
  /// max()/prev()/next()/LIFO tie order — everything observable) is exactly
  /// what inserting the items oldest-first would produce, but the links are
  /// set up in O(n) instead of n log n root descents.  This is the pass-
  /// start bulk load of the refiners.  Replaces tree t's contents; the
  /// items' handles must not sit in any other tree.
  void assign_sorted(const std::pair<Key, Handle>* items, std::uint32_t count,
                     std::uint32_t t = 0) {
    for (Handle h = roots_[t].max; h != kNull; h = prev(h)) {
      tree_of_[h] = kNoTree;
    }
    roots_[t] = Root{};
    if (count == 0) return;
    assert(count <= capacity());
    Root& r = roots_[t];
    r.root = build_range(items, 0, count, kNull, t);
    r.max = items[count - 1].second;
    r.size = count;
  }

  /// Handle with the maximum key of tree t (ties: most recently inserted).
  /// The tree must be non-empty.  O(1): maintained across mutations.
  Handle max(std::uint32_t t = 0) const noexcept {
    assert(!empty(t));
    return roots_[t].max;
  }

  /// Handle with the minimum key of tree t.  The tree must be non-empty.
  Handle min(std::uint32_t t = 0) const noexcept {
    assert(!empty(t));
    Handle cur = roots_[t].root;
    while (nodes_[cur].left != kNull) cur = nodes_[cur].left;
    return cur;
  }

  /// In-order predecessor of h (next handle in descending key order), or
  /// kNull at the minimum.
  Handle prev(Handle h) const noexcept {
    if (nodes_[h].left != kNull) {
      Handle cur = nodes_[h].left;
      while (nodes_[cur].right != kNull) cur = nodes_[cur].right;
      return cur;
    }
    // No left subtree: the predecessor is the first ancestor of which h
    // lies in the right subtree — climb while we are a left child.
    Handle cur = h;
    Handle up = nodes_[cur].parent;
    while (up != kNull && nodes_[up].left == cur) {
      cur = up;
      up = nodes_[cur].parent;
    }
    return up;
  }

  /// In-order successor of h (next handle in ascending key order), or
  /// kNull at the maximum.
  Handle next(Handle h) const noexcept {
    if (nodes_[h].right != kNull) {
      Handle cur = nodes_[h].right;
      while (nodes_[cur].left != kNull) cur = nodes_[cur].left;
      return cur;
    }
    // No right subtree: the successor is the first ancestor of which h
    // lies in the left subtree — climb while we are a right child.
    Handle cur = h;
    Handle up = nodes_[cur].parent;
    while (up != kNull && nodes_[up].right == cur) {
      cur = up;
      up = nodes_[cur].parent;
    }
    return up;
  }

  /// Visits tree t's handles in descending key order while `visit`
  /// returns true.
  template <typename Visitor>
  void for_each_descending(Visitor&& visit, std::uint32_t t = 0) const {
    if (empty(t)) return;
    for (Handle h = max(t); h != kNull; h = prev(h)) {
      if (!visit(h, nodes_[h].key)) return;
    }
  }

  /// Validation helper for tests: checks tree t's BST order, AVL balance,
  /// parent links, membership and size.  O(n).
  bool check_invariants(std::uint32_t t = 0) const {
    const Root& r = roots_[t];
    std::uint32_t counted = 0;
    const int h = check_subtree(r.root, kNull, t, counted);
    if (h < 0 || counted != r.size) return false;
    // The cached max must be the rightmost node.
    Handle rightmost = r.root;
    while (rightmost != kNull && nodes_[rightmost].right != kNull) {
      rightmost = nodes_[rightmost].right;
    }
    return r.max == rightmost;
  }

 private:
  /// Links items[lo, hi) into a height-balanced subtree under `parent` and
  /// returns its root.  The mid split keeps subtree sizes within 1 of each
  /// other, so heights differ by at most 1 — a valid AVL shape.
  Handle build_range(const std::pair<Key, Handle>* items, std::uint32_t lo,
                     std::uint32_t hi, Handle parent, std::uint32_t t) {
    if (lo >= hi) return kNull;
    const std::uint32_t mid = lo + (hi - lo) / 2;
    const Handle h = items[mid].second;
    nodes_[h].key = items[mid].first;
    tree_of_[h] = static_cast<std::uint16_t>(t);
    nodes_[h].parent = parent;
    nodes_[h].left = build_range(items, lo, mid, h, t);
    nodes_[h].right = build_range(items, mid + 1, hi, h, t);
    const int hl = height_of(nodes_[h].left);
    const int hr = height_of(nodes_[h].right);
    nodes_[h].height = 1 + (hl > hr ? hl : hr);
    return h;
  }

  int height_of(Handle h) const noexcept { return h == kNull ? 0 : nodes_[h].height; }

  void update_height(Handle h) noexcept {
    const int hl = height_of(nodes_[h].left);
    const int hr = height_of(nodes_[h].right);
    nodes_[h].height = 1 + (hl > hr ? hl : hr);
  }

  int balance_factor(Handle h) const noexcept {
    return height_of(nodes_[h].left) - height_of(nodes_[h].right);
  }

  void set_child(Handle parent, Handle old_child, Handle new_child) noexcept {
    if (nodes_[parent].left == old_child) {
      nodes_[parent].left = new_child;
    } else {
      nodes_[parent].right = new_child;
    }
    if (new_child != kNull) nodes_[new_child].parent = parent;
  }

  /// Makes `replacement` occupy h's position relative to h's parent/root.
  void replace_at_parent(Handle h, Handle replacement) noexcept {
    const Handle p = nodes_[h].parent;
    if (p == kNull) {
      roots_[tree_of_[h]].root = replacement;
      if (replacement != kNull) nodes_[replacement].parent = kNull;
    } else {
      set_child(p, h, replacement);
    }
  }

  Handle rotate_left(Handle x) noexcept {
    const Handle y = nodes_[x].right;
    nodes_[x].right = nodes_[y].left;
    if (nodes_[y].left != kNull) nodes_[nodes_[y].left].parent = x;
    replace_at_parent(x, y);
    nodes_[y].left = x;
    nodes_[x].parent = y;
    update_height(x);
    update_height(y);
    return y;
  }

  Handle rotate_right(Handle x) noexcept {
    const Handle y = nodes_[x].left;
    nodes_[x].left = nodes_[y].right;
    if (nodes_[y].right != kNull) nodes_[nodes_[y].right].parent = x;
    replace_at_parent(x, y);
    nodes_[y].right = x;
    nodes_[x].parent = y;
    update_height(x);
    update_height(y);
    return y;
  }

  void rebalance_up(Handle h) noexcept {
    while (h != kNull) {
      const int old_height = nodes_[h].height;
      update_height(h);
      const int bf = balance_factor(h);
      if (bf > 1) {
        if (balance_factor(nodes_[h].left) < 0) rotate_left(nodes_[h].left);
        h = rotate_right(h);
      } else if (bf < -1) {
        if (balance_factor(nodes_[h].right) > 0) rotate_right(nodes_[h].right);
        h = rotate_left(h);
      } else if (nodes_[h].height == old_height) {
        // No rotation and the subtree height is what the ancestors already
        // account for: nothing above can change.
        return;
      }
      h = nodes_[h].parent;
    }
  }

  /// Returns subtree height, or -1 on any violated invariant.
  int check_subtree(Handle h, Handle expected_parent, std::uint32_t t,
                    std::uint32_t& counted) const {
    if (h == kNull) return 0;
    if (tree_of_[h] != t || nodes_[h].parent != expected_parent) return -1;
    ++counted;
    const int hl = check_subtree(nodes_[h].left, h, t, counted);
    const int hr = check_subtree(nodes_[h].right, h, t, counted);
    if (hl < 0 || hr < 0) return -1;
    if (hl - hr > 1 || hr - hl > 1) return -1;
    if (nodes_[h].left != kNull && nodes_[h].key < nodes_[nodes_[h].left].key) {
      return -1;
    }
    if (nodes_[h].right != kNull &&
        nodes_[nodes_[h].right].key < nodes_[h].key) {
      return -1;
    }
    const int height = 1 + (hl > hr ? hl : hr);
    if (height != nodes_[h].height) return -1;
    return height;
  }

  // Key, links and height are packed into one 24-byte record so that every
  // hop of a descend / neighbor walk / rebalance touches a single cache
  // line.
  struct Node {
    Key key;
    Handle left;
    Handle right;
    Handle parent;
    std::int32_t height;
  };

  struct Root {
    Handle root = kNull;
    Handle max = kNull;
    std::uint32_t size = 0;
  };

  std::vector<Node> nodes_;
  std::vector<std::uint16_t> tree_of_;
  std::vector<Root> roots_;
};

}  // namespace prop
