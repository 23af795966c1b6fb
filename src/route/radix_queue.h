/// \file radix_queue.h
/// Monotone radix priority queue for the maze search's A* keys.
///
/// A radix heap (Ahuja, Mehlhorn, Orlin & Tarjan, "Faster algorithms for
/// the shortest path problem", JACM 1990) over the IEEE-754 bit patterns of
/// non-negative doubles, which order like the values they encode. Bucket 0
/// holds the entries whose key equals the last key popped; bucket b >= 1
/// holds those whose highest bit differing from it is bit b - 1 (bit 0 the
/// least significant). Popping an empty bucket 0 finds the lowest
/// non-empty bucket, makes its smallest key the new last key and spreads
/// the bucket over the buckets below it. An entry only ever moves to a lower
/// bucket, so it moves at most 64 times between its push and its pop, and
/// far fewer when keys cluster close above the last one, as A* keys do.
///
/// Order among equal keys: entries with one key always share a bucket and
/// keep their push order inside it, and bucket 0 pops from its back, so
/// equal keys come out last-in first-out.
///
/// Monotone use: a push below the last key top() returned is clamped to it
/// (it goes to bucket 0 and comes out before any larger key); top() still
/// reports the key it was pushed with. The maze search meets this only
/// through rounding, when costs that are not exact in binary (0.3, say)
/// make f = g + h come out an ulp smaller at a child than at its parent.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace vm1 {

class RadixQueue {
 public:
  struct Entry {
    double key;
    std::size_t value;
  };

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// `key` must be +0.0 or above (not -0.0, not NaN).
  void push(double key, std::size_t value) {
    std::uint64_t bits = std::bit_cast<std::uint64_t>(key);
    int b = bits > last_ ? bucket_of(bits) : 0;  // clamp: below last -> 0
    buckets_[b].push_back({key, value});
    if (b != 0) nonempty_ |= mask(b);
    ++size_;
  }

  /// The entry pop() removes next; the queue must not be empty.
  const Entry& top() {
    if (buckets_[0].empty()) refill();
    return buckets_[0].back();
  }

  /// Removes top(); the queue must not be empty.
  void pop() {
    if (buckets_[0].empty()) refill();
    buckets_[0].pop_back();
    --size_;
  }

  /// Empties the queue and forgets the last key; capacity stays.
  void clear() {
    for (auto& bucket : buckets_) bucket.clear();
    nonempty_ = 0;
    last_ = 0;
    size_ = 0;
  }

 private:
  static constexpr int kBuckets = 65;

  static std::uint64_t mask(int b) { return std::uint64_t{1} << (b - 1); }

  /// Bucket of a key above last_: one plus the index of the highest bit in
  /// which the two differ, in [1, 64].
  int bucket_of(std::uint64_t bits) const {
    return static_cast<int>(std::bit_width(bits ^ last_));
  }

  /// Moves the lowest non-empty bucket b >= 1 down, so that bucket 0 holds
  /// every entry with the smallest key left. Its entries all lie above
  /// last_ and below every entry of a higher bucket, so the smallest of
  /// them is the queue's minimum.
  void refill() {
    int b = std::countr_zero(nonempty_) + 1;
    std::vector<Entry>& from = buckets_[b];
    std::uint64_t lo = std::bit_cast<std::uint64_t>(from.front().key);
    for (const Entry& e : from) {
      std::uint64_t bits = std::bit_cast<std::uint64_t>(e.key);
      if (bits < lo) lo = bits;
    }
    last_ = lo;
    for (const Entry& e : from) {
      int to = bucket_of(std::bit_cast<std::uint64_t>(e.key));
      buckets_[to].push_back(e);
      if (to != 0) nonempty_ |= mask(to);
    }
    from.clear();
    nonempty_ &= ~mask(b);
  }

  std::vector<Entry> buckets_[kBuckets];
  std::uint64_t nonempty_ = 0;  ///< mask(b) set when bucket b >= 1 is not
  std::uint64_t last_ = 0;      ///< bits of the last key top() returned
  std::size_t size_ = 0;
};

}  // namespace vm1
