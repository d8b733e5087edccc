#include "datastruct/gain_heap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "datastruct/gain_vector.h"
#include "util/rng.h"

namespace prop {
namespace {

using Heap = GainHeap<int>;

TEST(GainHeap, EmptyInvariants) {
  Heap t(16);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.check_invariants());
  EXPECT_EQ(t.max_if([](Heap::Handle) { return true; }), Heap::kNull);
}

TEST(GainHeap, InsertAndMax) {
  Heap t(16);
  t.insert(3, 10);
  t.insert(5, 30);
  t.insert(7, 20);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.max(), 5u);
  EXPECT_EQ(t.key(5), 30);
  EXPECT_TRUE(t.check_invariants());
}

TEST(GainHeap, EraseLeafRootAndInner) {
  Heap t(16);
  for (Heap::Handle h = 0; h < 7; ++h) t.insert(h, static_cast<int>(h));
  t.erase(6);  // the max, at the root
  EXPECT_FALSE(t.contains(6));
  t.erase(3);
  t.erase(0);  // a leaf
  EXPECT_EQ(t.size(), 4u);
  EXPECT_TRUE(t.check_invariants());
  EXPECT_EQ(t.max(), 5u);
}

TEST(GainHeap, UpdateMovesHandle) {
  Heap t(8);
  t.insert(1, 10);
  t.insert(2, 20);
  t.update(1, 30);
  EXPECT_EQ(t.max(), 1u);
  EXPECT_EQ(t.key(1), 30);
  t.update(1, 5);
  EXPECT_EQ(t.max(), 2u);
  EXPECT_TRUE(t.check_invariants());
}

TEST(GainHeap, DuplicateKeysLifoAtMax) {
  Heap t(8);
  t.insert(1, 7);
  t.insert(2, 7);
  t.insert(3, 7);
  EXPECT_EQ(t.max(), 3u);  // newest equal key wins
  t.erase(3);
  EXPECT_EQ(t.max(), 2u);
}

/// An update, even to the key a handle already holds, makes it the newest
/// of its equals — the order of the AVL tree's erase + insert fallback.
TEST(GainHeap, EqualKeyUpdateMakesNewest) {
  Heap t(8);
  t.insert(1, 7);
  t.insert(2, 7);
  t.insert(3, 7);
  t.update(1, 7);
  EXPECT_EQ(t.max(), 1u);
  t.update(2, 9);
  t.update(2, 7);
  EXPECT_EQ(t.max(), 2u);
  std::vector<Heap::Handle> order;
  t.for_each_descending([&](Heap::Handle h, int) {
    order.push_back(h);
    return true;
  });
  EXPECT_EQ(order, (std::vector<Heap::Handle>{2, 1, 3}));
}

/// assign_sorted joins items in array order: among equal keys the later
/// item (the refiners stage them in node order) ranks first, exactly as
/// inserting them one by one would.
TEST(GainHeap, AssignSortedNodeOrderTies) {
  Heap bulk(8);
  Heap one_by_one(8);
  const std::vector<std::pair<int, Heap::Handle>> items = {
      {1, 4}, {3, 0}, {3, 2}, {3, 5}, {6, 1}, {6, 3}};
  bulk.assign_sorted(items.data(), static_cast<std::uint32_t>(items.size()));
  for (const auto& [key, h] : items) one_by_one.insert(h, key);
  EXPECT_TRUE(bulk.check_invariants());
  const auto drain = [](const Heap& heap) {
    std::vector<Heap::Handle> order;
    heap.for_each_descending([&](Heap::Handle h, int) {
      order.push_back(h);
      return true;
    });
    return order;
  };
  EXPECT_EQ(drain(bulk), (std::vector<Heap::Handle>{3, 1, 5, 2, 0, 4}));
  EXPECT_EQ(drain(bulk), drain(one_by_one));
  // Later joins rank above the bulk-loaded equals.
  bulk.insert(6, 3);
  EXPECT_EQ(bulk.max_if([](Heap::Handle h) { return h != 3 && h != 1; }), 6u);
}

TEST(GainHeap, DescendingIterationSorted) {
  Heap t(32);
  Rng rng(5);
  for (Heap::Handle h = 0; h < 32; ++h) {
    t.insert(h, static_cast<int>(rng.bounded(10)));
  }
  int last = 1 << 30;
  int count = 0;
  t.for_each_descending([&](Heap::Handle, int k) {
    EXPECT_LE(k, last);
    last = k;
    ++count;
    return true;
  });
  EXPECT_EQ(count, 32);
}

TEST(GainHeap, DescendingIterationEarlyExit) {
  Heap t(8);
  for (Heap::Handle h = 0; h < 8; ++h) t.insert(h, static_cast<int>(h));
  int seen = 0;
  t.for_each_descending([&](Heap::Handle, int) { return ++seen < 3; });
  EXPECT_EQ(seen, 3);
}

TEST(GainHeap, ClearResets) {
  Heap t(8);
  t.insert(1, 5);
  t.insert(2, 6);
  t.clear();
  EXPECT_TRUE(t.empty());
  EXPECT_FALSE(t.contains(1));
  t.insert(1, 9);
  EXPECT_EQ(t.max(), 1u);
}

TEST(GainHeap, SequentialInsertKeepsHeapOrder) {
  constexpr Heap::Handle kCap = 4096;
  Heap t(kCap);
  for (Heap::Handle h = 0; h < kCap; ++h) {
    t.insert(h, static_cast<int>(h));  // every insert sifts to the root
  }
  EXPECT_TRUE(t.check_invariants());
  EXPECT_EQ(t.max(), kCap - 1);
  EXPECT_EQ(t.max_if([](Heap::Handle h) { return h % 1000 == 0; }), 4000u);
}

/// The descending walk visits every handle exactly once, in order, for
/// adversarial insertion orders.
TEST(GainHeap, DescendingVisitsEveryNodeOnceAllShapes) {
  const auto check_full_walk = [](const std::vector<int>& keys) {
    Heap t(static_cast<Heap::Handle>(keys.size()));
    for (Heap::Handle h = 0; h < keys.size(); ++h) {
      t.insert(h, keys[h]);
    }
    std::vector<char> seen(keys.size(), 0);
    int count = 0;
    int last = 1 << 30;
    t.for_each_descending([&](Heap::Handle h, int k) {
      EXPECT_FALSE(seen[h]) << "handle visited twice";
      seen[h] = 1;
      EXPECT_LE(k, last);
      last = k;
      ++count;
      return true;
    });
    EXPECT_EQ(count, static_cast<int>(keys.size()));
  };
  check_full_walk({1, 2, 3, 4, 5, 6, 7});        // ascending
  check_full_walk({7, 6, 5, 4, 3, 2, 1});        // descending
  check_full_walk({4, 2, 6, 1, 3, 5, 7});        // balanced
  check_full_walk({1, 7, 2, 6, 3, 5, 4});        // zigzag
  check_full_walk({5, 5, 5, 5, 5});              // all duplicates
  check_full_walk({2, 1, 2, 1, 3, 3, 2});        // mixed duplicates
}

TEST(GainHeap, DoubleKeysWork) {
  GainHeap<double> t(8);
  t.insert(0, 1.5);
  t.insert(1, -0.25);
  t.insert(2, 1.5000001);
  EXPECT_EQ(t.max(), 2u);
}

/// Several heaps over one handle space: each handle stays in the heap it
/// was inserted into across updates, and re-loading one heap with
/// assign_sorted leaves the others untouched.
TEST(GainHeap, HeapsShareOneHandleSpace) {
  constexpr Heap::Handle kCap = 240;
  constexpr std::uint32_t kHeaps = 3;
  Heap t(kCap, kHeaps);
  Rng rng(2024);
  for (Heap::Handle h = 0; h < kCap; ++h) {
    t.insert(h, static_cast<int>(rng.range(-40, 40)),
             static_cast<std::uint32_t>(rng.bounded(kHeaps)));
  }
  for (int op = 0; op < 2000; ++op) {
    const auto h = static_cast<Heap::Handle>(rng.bounded(kCap));
    const std::uint32_t heap = t.tree_of(h);
    t.update(h, static_cast<int>(rng.range(-40, 40)));
    ASSERT_EQ(t.tree_of(h), heap);
  }
  std::vector<std::vector<std::pair<Heap::Handle, int>>> before(kHeaps);
  for (Heap::Handle h = 0; h < kCap; ++h) {
    before[t.tree_of(h)].emplace_back(h, t.key(h));
  }

  // Re-key heap 1 in bulk.
  std::vector<std::pair<int, Heap::Handle>> items;
  for (const auto& [h, key] : before[1]) items.emplace_back(key + 100, h);
  std::sort(items.begin(), items.end());
  t.assign_sorted(items.data(), static_cast<std::uint32_t>(items.size()), 1);
  EXPECT_TRUE(t.check_invariants(1));
  EXPECT_EQ(t.size(1), before[1].size());
  for (const std::uint32_t heap : {0u, 2u}) {
    EXPECT_TRUE(t.check_invariants(heap));
    EXPECT_EQ(t.size(heap), before[heap].size());
    for (const auto& [h, key] : before[heap]) {
      EXPECT_EQ(t.tree_of(h), heap);
      EXPECT_EQ(t.key(h), key);
    }
  }
  t.clear();
  for (std::uint32_t heap = 0; heap < kHeaps; ++heap) {
    EXPECT_TRUE(t.empty(heap));
  }
  EXPECT_FALSE(t.contains(items.empty() ? 0 : items.front().second));
}

// --- property test against a std::set reference ---------------------------

/// Reference model: per heap, a set ordered by (key, join), where join is a
/// global counter bumped exactly where the heap bumps its sequence.  Its
/// last element is the heap's max, and reverse iteration is the descending
/// order.
template <typename Key>
struct Reference {
  using Item = std::tuple<Key, std::uint64_t, std::uint32_t>;
  std::vector<std::set<Item>> heaps;
  std::vector<std::uint64_t> join;  // per handle
  std::vector<Key> key;             // per handle
  std::vector<int> heap_of;         // per handle, -1 when absent
  std::uint64_t clock = 0;

  Reference(std::uint32_t capacity, std::uint32_t count)
      : heaps(count), join(capacity), key(capacity), heap_of(capacity, -1) {}

  void insert(std::uint32_t h, const Key& k, std::uint32_t t) {
    join[h] = clock++;
    key[h] = k;
    heap_of[h] = static_cast<int>(t);
    heaps[t].emplace(k, join[h], h);
  }
  void erase(std::uint32_t h) {
    heaps[static_cast<std::size_t>(heap_of[h])].erase({key[h], join[h], h});
    heap_of[h] = -1;
  }
  void update(std::uint32_t h, const Key& k) {
    const auto t = static_cast<std::uint32_t>(heap_of[h]);
    erase(h);
    insert(h, k, t);
  }
  void assign(const std::vector<std::pair<Key, std::uint32_t>>& items,
              std::uint32_t t) {
    for (const Item& item : heaps[t]) heap_of[std::get<2>(item)] = -1;
    heaps[t].clear();
    for (const auto& [k, h] : items) insert(h, k, t);
  }
};

template <typename Key, typename KeyGen>
void check_against_reference(std::uint64_t seed, std::uint32_t capacity,
                             std::uint32_t heaps, int ops, KeyGen&& gen) {
  GainHeap<Key> heap(capacity, heaps);
  Reference<Key> ref(capacity, heaps);
  Rng rng(seed);
  std::vector<std::uint8_t> mask(capacity);

  for (int op = 0; op < ops; ++op) {
    const auto h = static_cast<std::uint32_t>(rng.bounded(capacity));
    const double roll = rng.uniform();
    if (roll < 0.002) {
      // Bulk-load one heap from the free handles plus its own members.
      const auto t = static_cast<std::uint32_t>(rng.bounded(heaps));
      std::vector<std::pair<Key, std::uint32_t>> items;
      for (std::uint32_t v = 0; v < capacity; ++v) {
        if ((ref.heap_of[v] < 0 && rng.chance(0.5)) ||
            ref.heap_of[v] == static_cast<int>(t)) {
          items.emplace_back(gen(rng), v);
        }
      }
      std::stable_sort(items.begin(), items.end(),
                       [](const auto& a, const auto& b) {
                         return a.first < b.first;
                       });
      heap.assign_sorted(items.data(), static_cast<std::uint32_t>(items.size()),
                         t);
      ref.assign(items, t);
    } else if (roll < 0.004) {
      heap.clear();
      ref = Reference<Key>(capacity, heaps);
    } else if (!heap.contains(h)) {
      const auto t = static_cast<std::uint32_t>(rng.bounded(heaps));
      const Key k = gen(rng);
      heap.insert(h, k, t);
      ref.insert(h, k, t);
    } else if (rng.chance(0.3)) {
      heap.erase(h);
      ref.erase(h);
    } else {
      // Every other update keeps the key: equal-key updates reorder ties.
      const Key k = rng.chance(0.5) ? heap.key(h) : gen(rng);
      heap.update(h, k);
      ref.update(h, k);
    }

    ASSERT_EQ(heap.contains(h), ref.heap_of[h] >= 0) << "op " << op;
    if (heap.contains(h)) {
      ASSERT_EQ(heap.tree_of(h), ref.heap_of[h]);
      ASSERT_TRUE(heap.key(h) == ref.key[h]);
    }
    for (auto& m : mask) m = rng.chance(0.2) ? 1 : 0;
    for (std::uint32_t t = 0; t < heaps; ++t) {
      const auto& items = ref.heaps[t];
      ASSERT_EQ(heap.size(t), items.size()) << "op " << op;
      if (items.empty()) {
        ASSERT_TRUE(heap.empty(t));
        continue;
      }
      ASSERT_EQ(heap.max(t), std::get<2>(*items.rbegin())) << "op " << op;

      // A descending prefix of random length, with early exit.
      const std::size_t want = 1 + rng.bounded(8);
      std::vector<std::uint32_t> walked;
      heap.for_each_descending(
          [&](std::uint32_t v, const Key& k) {
            EXPECT_TRUE(k == ref.key[v]);
            walked.push_back(v);
            return walked.size() < want;
          },
          t);
      std::vector<std::uint32_t> expect;
      for (auto it = items.rbegin(); it != items.rend() && expect.size() < want;
           ++it) {
        expect.push_back(std::get<2>(*it));
      }
      ASSERT_EQ(walked, expect) << "op " << op << " heap " << t;

      // max_if under a random pure predicate: the first passing handle of
      // the descending order, or kNull.
      std::uint32_t brute = GainHeap<Key>::kNull;
      for (auto it = items.rbegin(); it != items.rend(); ++it) {
        if (mask[std::get<2>(*it)]) {
          brute = std::get<2>(*it);
          break;
        }
      }
      ASSERT_EQ(heap.max_if([&](std::uint32_t v) { return mask[v] != 0; }, t),
                brute)
          << "op " << op << " heap " << t;
    }
    if (op % 256 == 0) {
      for (std::uint32_t t = 0; t < heaps; ++t) {
        ASSERT_TRUE(heap.check_invariants(t)) << "op " << op;
      }
    }
  }
  for (std::uint32_t h = 0; h < capacity; ++h) {
    ASSERT_EQ(heap.contains(h), ref.heap_of[h] >= 0);
  }
}

/// Random insert/erase/update/assign_sorted/clear sequences over three
/// heaps, with keys drawn from a range small enough that most keys repeat.
TEST(GainHeap, RandomOpsMatchReference) {
  check_against_reference<int>(
      12345, 300, 3, 20000,
      [](Rng& rng) { return static_cast<int>(rng.range(-6, 6)); });
}

TEST(GainHeap, RandomOpsMatchReferenceDoubleKeys) {
  check_against_reference<double>(
      777, 200, 2, 15000, [](Rng& rng) {
        return 0.25 * static_cast<double>(rng.range(-8, 8));
      });
}

TEST(GainHeap, RandomOpsMatchReferenceGainVectorKeys) {
  check_against_reference<GainVector>(
      4242, 160, 2, 12000, [](Rng& rng) {
        GainVector v(3);
        for (int level = 1; level <= 3; ++level) {
          v.set(level, static_cast<int>(rng.range(-1, 1)));
        }
        return v;
      });
}

}  // namespace
}  // namespace prop
