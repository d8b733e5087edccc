#include "datastruct/bucket_list.h"

#include <gtest/gtest.h>

#include <map>

#include "util/rng.h"

namespace prop {
namespace {

TEST(BucketList, InsertBestErase) {
  BucketList b(8, 5);
  b.insert(0, 2);
  b.insert(1, -3);
  b.insert(2, 5);
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b.best(), 2u);
  b.erase(2);
  EXPECT_EQ(b.best(), 0u);
  EXPECT_FALSE(b.contains(2));
}

TEST(BucketList, LifoWithinBucket) {
  BucketList b(8, 3);
  b.insert(0, 1);
  b.insert(1, 1);
  b.insert(2, 1);
  EXPECT_EQ(b.best(), 2u);
  b.erase(2);
  EXPECT_EQ(b.best(), 1u);
}

TEST(BucketList, UpdateMovesBuckets) {
  BucketList b(8, 5);
  b.insert(0, 0);
  b.insert(1, 1);
  b.update(0, 4);
  EXPECT_EQ(b.best(), 0u);
  EXPECT_EQ(b.gain(0), 4);
  b.update(0, -5);
  EXPECT_EQ(b.best(), 1u);
}

TEST(BucketList, MaxGainTracksDownward) {
  BucketList b(4, 10);
  b.insert(0, 10);
  b.insert(1, -10);
  b.erase(0);
  EXPECT_EQ(b.best(), 1u);
}

TEST(BucketList, BestWherePredicate) {
  BucketList b(8, 5);
  b.insert(0, 5);
  b.insert(1, 4);
  b.insert(2, 3);
  const auto found = b.best_where([](BucketList::Handle h) { return h != 0; });
  EXPECT_EQ(found, 1u);
  const auto none = b.best_where([](BucketList::Handle) { return false; });
  EXPECT_EQ(none, BucketList::kNull);
}

TEST(BucketList, ClearResets) {
  BucketList b(8, 5);
  b.insert(0, 1);
  b.clear();
  EXPECT_TRUE(b.empty());
  b.insert(0, -1);
  EXPECT_EQ(b.best(), 0u);
}

TEST(BucketList, SameGainUpdateKeepsLifoOrder) {
  // An update to the unchanged gain is a no-op: the handle keeps its LIFO
  // slot within the bucket instead of becoming the newest entry.
  BucketList b(8, 5);
  b.insert(0, 1);
  b.insert(1, 1);
  EXPECT_EQ(b.best(), 1u);
  b.update(0, 1);
  EXPECT_EQ(b.best(), 1u);  // 1 is still the newest in the gain-1 bucket
  b.erase(1);
  EXPECT_EQ(b.best(), 0u);
  EXPECT_EQ(b.gain(0), 1);
}

/// Property: random ops match a reference map; best() always returns a
/// handle of maximal gain.
TEST(BucketList, RandomOpsMatchReference) {
  constexpr BucketList::Handle kCap = 200;
  constexpr int kMaxGain = 20;
  BucketList b(kCap, kMaxGain);
  std::map<BucketList::Handle, int> ref;
  Rng rng(777);

  for (int op = 0; op < 20000; ++op) {
    const auto h = static_cast<BucketList::Handle>(rng.bounded(kCap));
    const int gain = static_cast<int>(rng.range(-kMaxGain, kMaxGain));
    if (!b.contains(h)) {
      b.insert(h, gain);
      ref[h] = gain;
    } else if (rng.chance(0.4)) {
      b.erase(h);
      ref.erase(h);
    } else {
      b.update(h, gain);
      ref[h] = gain;
    }
    ASSERT_EQ(b.size(), ref.size());
    if (!ref.empty()) {
      int max_gain = ref.begin()->second;
      for (const auto& [rh, rg] : ref) max_gain = std::max(max_gain, rg);
      ASSERT_EQ(b.gain(b.best()), max_gain);
    }
  }
}

}  // namespace
}  // namespace prop
