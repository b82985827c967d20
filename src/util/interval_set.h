#ifndef XTOPK_UTIL_INTERVAL_SET_H_
#define XTOPK_UTIL_INTERVAL_SET_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace xtopk {

/// Disjoint half-open uint32 intervals in flat sorted vectors: the erased
/// row ranges of one inverted list under range checking (paper §III-E).
/// Add stages an interval; queries read only committed ones; Commit merges
/// the staged ones in one linear pass, coalescing. Algorithm 1 commits
/// at every level boundary, which is exact because runs of different
/// values at one level cover disjoint rows: a level never queries what it
/// erased itself (asserted in debug builds).
class IntervalSet {
 public:
  /// Stages [begin, end). The intervals staged between two Commits must
  /// come in ascending order and be disjoint.
  void Add(uint32_t begin, uint32_t end) {
    if (begin >= end) return;
    assert(staged_.empty() || staged_.back().end <= begin);
    staged_.push_back(Interval{begin, end});
  }

  /// Merges the staged intervals into the committed ones. Returns the
  /// number of intervals the merge read (0 when nothing was staged).
  size_t Commit() {
    if (staged_.empty()) return 0;
    merged_.resize(intervals_.size() + staged_.size());
    std::merge(intervals_.begin(), intervals_.end(), staged_.begin(),
               staged_.end(), merged_.begin(),
               [](const Interval& a, const Interval& b) {
                 return a.begin < b.begin;
               });
    intervals_.clear();
    for (const Interval& next : merged_) {
      if (!intervals_.empty() && intervals_.back().end >= next.begin) {
        intervals_.back().end = std::max(intervals_.back().end, next.end);
      } else {
        intervals_.push_back(next);
      }
    }
    staged_.clear();
    return merged_.size();
  }

  /// Number of elements of [begin, end) the committed intervals cover.
  uint32_t CountOverlap(uint32_t begin, uint32_t end) const {
    assert(!Overlaps(staged_, begin, end));
    uint32_t total = 0;
    for (auto it = FirstEndingAfter(intervals_, begin);
         it != intervals_.end() && it->begin < end; ++it) {
      total += std::min(it->end, end) - std::max(it->begin, begin);
    }
    return total;
  }

  /// Calls fn(lo, hi) for each maximal sub-range of [begin, end) that the
  /// committed intervals do not cover. Used to take the max local score
  /// over the non-erased rows of a run.
  template <typename Fn>
  void ForEachUncovered(uint32_t begin, uint32_t end, Fn&& fn) const {
    assert(!Overlaps(staged_, begin, end));
    uint32_t cursor = begin;
    for (auto it = FirstEndingAfter(intervals_, begin);
         it != intervals_.end() && it->begin < end; ++it) {
      if (it->begin > cursor) fn(cursor, it->begin);
      cursor = it->end;
    }
    if (cursor < end) fn(cursor, end);
  }

  size_t interval_count() const { return intervals_.size(); }
  void Clear() {
    intervals_.clear();
    staged_.clear();
  }

 private:
  struct Interval {
    uint32_t begin;
    uint32_t end;
  };
  using Intervals = std::vector<Interval>;

  /// First interval of `v` that ends after `x` (a binary search).
  static Intervals::const_iterator FirstEndingAfter(const Intervals& v,
                                                    uint32_t x) {
    return std::upper_bound(
        v.begin(), v.end(), x,
        [](uint32_t value, const Interval& in) { return value < in.end; });
  }
  static bool Overlaps(const Intervals& v, uint32_t begin, uint32_t end) {
    auto it = FirstEndingAfter(v, begin);
    return begin < end && it != v.end() && it->begin < end;
  }

  Intervals intervals_;  // committed: sorted, coalesced
  Intervals staged_;     // added since the last Commit
  Intervals merged_;     // Commit's scratch buffer, reused
};

}  // namespace xtopk

#endif  // XTOPK_UTIL_INTERVAL_SET_H_
