#include "datastruct/bucket_list.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace prop {

BucketList::BucketList(Handle capacity, int max_gain)
    : max_gain_(max_gain),
      buckets_(2 * static_cast<std::size_t>(max_gain) + 1, kNull),
      next_(capacity, kNull),
      prev_(capacity, kNull),
      gain_(capacity, 0),
      in_list_(capacity, 0),
      top_(-max_gain) {
  if (max_gain < 0) throw std::invalid_argument("bucket: max_gain must be >= 0");
}

void BucketList::clear() {
  std::fill(buckets_.begin(), buckets_.end(), kNull);
  std::fill(in_list_.begin(), in_list_.end(), 0);
  top_ = -max_gain_;
  size_ = 0;
}

void BucketList::insert(Handle h, int gain) {
  assert(!contains(h));
  assert(gain >= -max_gain_ && gain <= max_gain_);
  gain_[h] = gain;
  in_list_[h] = 1;
  const std::size_t b = index(gain);
  next_[h] = buckets_[b];
  prev_[h] = kNull;
  if (buckets_[b] != kNull) prev_[buckets_[b]] = h;
  buckets_[b] = h;
  top_ = std::max(top_, gain);
  ++size_;
}

void BucketList::erase(Handle h) {
  assert(contains(h));
  const std::size_t b = index(gain_[h]);
  if (prev_[h] != kNull) {
    next_[prev_[h]] = next_[h];
  } else {
    buckets_[b] = next_[h];
  }
  if (next_[h] != kNull) prev_[next_[h]] = prev_[h];
  in_list_[h] = 0;
  --size_;
}

void BucketList::update(Handle h, int new_gain) {
  if (gain_[h] == new_gain && contains(h)) return;
  erase(h);
  insert(h, new_gain);
}

BucketList::Handle BucketList::best() noexcept {
  assert(!empty());
  int g = top_;
  while (buckets_[index(g)] == kNull) --g;
  // top_ is a lazy upper bound; tightening it here keeps best() amortized
  // O(1) over a pass.
  top_ = g;
  return buckets_[index(g)];
}

}  // namespace prop
