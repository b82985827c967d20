#include "util/interval_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.h"

namespace xtopk {
namespace {

/// Elements covered by the committed intervals.
uint32_t Covered(const IntervalSet& set) {
  return set.CountOverlap(0, UINT32_MAX);
}

bool Contains(const IntervalSet& set, uint32_t x) {
  return set.CountOverlap(x, x + 1) == 1;
}

TEST(IntervalSetTest, AddAndCount) {
  IntervalSet set;
  set.Add(10, 20);
  EXPECT_EQ(set.Commit(), 1u);
  EXPECT_EQ(Covered(set), 10u);
  EXPECT_EQ(set.CountOverlap(0, 100), 10u);
  EXPECT_EQ(set.CountOverlap(15, 18), 3u);
  EXPECT_EQ(set.CountOverlap(0, 10), 0u);
  EXPECT_EQ(set.CountOverlap(20, 30), 0u);
  EXPECT_TRUE(Contains(set, 10));
  EXPECT_FALSE(Contains(set, 20));
}

TEST(IntervalSetTest, MergeOverlapping) {
  // Intervals of different commits (levels) may overlap; Commit coalesces.
  IntervalSet set;
  set.Add(10, 20);
  set.Commit();
  set.Add(15, 25);
  EXPECT_EQ(set.Commit(), 2u);  // one committed + one staged interval read
  EXPECT_EQ(set.interval_count(), 1u);
  EXPECT_EQ(Covered(set), 15u);
  set.Add(25, 30);  // touching merges
  set.Commit();
  EXPECT_EQ(set.interval_count(), 1u);
  EXPECT_EQ(Covered(set), 20u);
  set.Add(40, 50);
  set.Commit();
  EXPECT_EQ(set.interval_count(), 2u);
  set.Add(5, 60);  // swallows everything
  set.Commit();
  EXPECT_EQ(set.interval_count(), 1u);
  EXPECT_EQ(Covered(set), 55u);
}

TEST(IntervalSetTest, NestedAddIsIdempotent) {
  // The paper's containment property: matched ranges are nested or
  // disjoint. Re-adding a contained range must not change the count.
  IntervalSet set;
  set.Add(0, 100);
  set.Commit();
  set.Add(10, 20);
  set.Commit();
  EXPECT_EQ(Covered(set), 100u);
  EXPECT_EQ(set.interval_count(), 1u);
  EXPECT_EQ(set.CountOverlap(0, 100), 100u);
}

TEST(IntervalSetTest, EmptyRangeIsNoop) {
  IntervalSet set;
  set.Add(5, 5);
  EXPECT_EQ(set.Commit(), 0u);
  EXPECT_EQ(Covered(set), 0u);
  EXPECT_EQ(set.CountOverlap(5, 5), 0u);
}

TEST(IntervalSetTest, StagedIntervalsInvisibleUntilCommit) {
  // One level's erasures are staged: checks at the same level read only
  // what earlier levels erased.
  IntervalSet set;
  set.Add(0, 10);
  set.Commit();
  set.Add(20, 30);
  set.Add(40, 50);
  EXPECT_EQ(set.CountOverlap(0, 15), 10u);
  EXPECT_EQ(set.interval_count(), 1u);
  EXPECT_EQ(set.Commit(), 3u);
  EXPECT_EQ(Covered(set), 30u);
  EXPECT_EQ(set.CountOverlap(0, 100), 30u);
  EXPECT_EQ(set.Commit(), 0u);  // nothing staged: no merge
}

TEST(IntervalSetTest, ForEachUncovered) {
  IntervalSet set;
  set.Add(10, 20);
  set.Add(30, 40);
  set.Commit();
  std::vector<std::pair<uint32_t, uint32_t>> gaps;
  set.ForEachUncovered(0, 50, [&](uint32_t lo, uint32_t hi) {
    gaps.emplace_back(lo, hi);
  });
  ASSERT_EQ(gaps.size(), 3u);
  EXPECT_EQ(gaps[0], (std::pair<uint32_t, uint32_t>{0, 10}));
  EXPECT_EQ(gaps[1], (std::pair<uint32_t, uint32_t>{20, 30}));
  EXPECT_EQ(gaps[2], (std::pair<uint32_t, uint32_t>{40, 50}));
}

TEST(IntervalSetTest, ForEachUncoveredFullyCovered) {
  IntervalSet set;
  set.Add(0, 100);
  set.Commit();
  int calls = 0;
  set.ForEachUncovered(10, 90, [&](uint32_t, uint32_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(IntervalSetTest, RandomizedAgainstBitmap) {
  // Each round stages a few ascending, disjoint intervals (one level's
  // erasures) that may overlap earlier rounds, then commits and checks
  // counts and uncovered enumeration against a bitmap.
  Rng rng(99);
  constexpr uint32_t kUniverse = 512;
  for (int trial = 0; trial < 50; ++trial) {
    IntervalSet set;
    std::vector<char> bitmap(kUniverse, 0);
    for (int round = 0; round < 20; ++round) {
      uint32_t cursor = static_cast<uint32_t>(rng.NextBounded(kUniverse / 4));
      int staged = static_cast<int>(rng.NextBounded(4));
      for (int i = 0; i < staged && cursor < kUniverse; ++i) {
        uint32_t len = static_cast<uint32_t>(rng.NextBounded(64));
        uint32_t end = std::min(kUniverse, cursor + len);
        set.Add(cursor, end);
        for (uint32_t r = cursor; r < end; ++r) bitmap[r] = 1;
        cursor = end + static_cast<uint32_t>(rng.NextBounded(64));
      }
      set.Commit();
      for (int q = 0; q < 3; ++q) {
        uint32_t qa = static_cast<uint32_t>(rng.NextBounded(kUniverse));
        uint32_t qb = static_cast<uint32_t>(rng.NextBounded(kUniverse));
        if (qa > qb) std::swap(qa, qb);
        uint32_t expected = 0;
        for (uint32_t i = qa; i < qb; ++i) expected += bitmap[i];
        ASSERT_EQ(set.CountOverlap(qa, qb), expected);
        // Uncovered enumeration must partition the complement.
        uint32_t uncovered = 0;
        set.ForEachUncovered(qa, qb, [&](uint32_t lo, uint32_t hi) {
          ASSERT_LT(lo, hi);
          for (uint32_t i = lo; i < hi; ++i) {
            ASSERT_EQ(bitmap[i], 0);
            ++uncovered;
          }
        });
        ASSERT_EQ(uncovered, (qb - qa) - expected);
      }
      uint64_t total = 0;
      for (char c : bitmap) total += c;
      ASSERT_EQ(Covered(set), total);
    }
  }
}

TEST(IntervalSetTest, ClearResets) {
  IntervalSet set;
  set.Add(1, 10);
  set.Add(20, 30);
  set.Commit();
  ASSERT_EQ(Covered(set), 19u);
  set.Add(40, 50);  // staged intervals are dropped too
  set.Clear();
  EXPECT_EQ(set.Commit(), 0u);
  EXPECT_EQ(Covered(set), 0u);
  EXPECT_EQ(set.interval_count(), 0u);
  EXPECT_EQ(set.CountOverlap(0, 100), 0u);
  set.Add(5, 6);
  set.Commit();
  EXPECT_TRUE(Contains(set, 5));
}

}  // namespace
}  // namespace xtopk
