#include "core/topk_star_join.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "obs/metrics.h"
#include "util/rng.h"

namespace xtopk {
namespace {

std::vector<RankedTuple> Sorted(std::vector<RankedTuple> tuples) {
  std::sort(tuples.begin(), tuples.end(),
            [](const RankedTuple& a, const RankedTuple& b) {
              return a.score > b.score;
            });
  return tuples;
}

/// Reference: full join + sort, top k.
std::vector<StarJoinResultRow> FullJoin(
    const std::vector<std::vector<RankedTuple>>& relations, size_t k) {
  std::map<uint64_t, std::pair<size_t, double>> acc;  // id -> (count, sum)
  for (const auto& rel : relations) {
    for (const RankedTuple& t : rel) {
      auto& [count, sum] = acc[t.id];
      ++count;
      sum += t.score;
    }
  }
  std::vector<StarJoinResultRow> out;
  for (const auto& [id, cs] : acc) {
    if (cs.first == relations.size()) {
      out.push_back(StarJoinResultRow{id, cs.second, false});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const StarJoinResultRow& a, const StarJoinResultRow& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.id < b.id;
            });
  if (out.size() > k) out.resize(k);
  return out;
}

std::vector<std::vector<RankedTuple>> RandomRelations(uint64_t seed, size_t k,
                                                      size_t ids,
                                                      double keep_prob) {
  Rng rng(seed);
  std::vector<std::vector<RankedTuple>> rels(k);
  for (size_t r = 0; r < k; ++r) {
    for (uint64_t id = 0; id < ids; ++id) {
      if (rng.NextBernoulli(keep_prob)) {
        rels[r].push_back(RankedTuple{id, rng.NextDouble()});
      }
    }
    rels[r] = Sorted(rels[r]);
  }
  return rels;
}

TEST(TopKStarJoinTest, TwoWayBasic) {
  VectorRankedSource r1(Sorted({{1, 1.0}, {2, 0.9}, {3, 0.2}}));
  VectorRankedSource r2(Sorted({{2, 0.8}, {3, 0.7}, {4, 0.6}}));
  TopKStarJoin join({&r1, &r2}, StarJoinOptions{2, true});
  auto results = join.Run();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].id, 2u);
  EXPECT_NEAR(results[0].score, 1.7, 1e-12);
  EXPECT_EQ(results[1].id, 3u);
  EXPECT_NEAR(results[1].score, 0.9, 1e-12);
}

TEST(TopKStarJoinTest, RunMirrorsStatsIntoRegistry) {
  auto& registry = obs::MetricsRegistry::Global();
  uint64_t runs_before = registry.GetCounter("core.topk.star.runs").value();
  uint64_t read_before =
      registry.GetCounter("core.topk.star.tuples_read").value();

  VectorRankedSource r1(Sorted({{1, 1.0}, {2, 0.9}, {3, 0.2}}));
  VectorRankedSource r2(Sorted({{2, 0.8}, {3, 0.7}, {4, 0.6}}));
  TopKStarJoin join({&r1, &r2}, StarJoinOptions{2, true});
  auto results = join.Run();
  ASSERT_EQ(results.size(), 2u);

  EXPECT_EQ(registry.GetCounter("core.topk.star.runs").value(),
            runs_before + 1);
  EXPECT_EQ(registry.GetCounter("core.topk.star.tuples_read").value(),
            read_before + join.stats().tuples_read);
  EXPECT_GT(join.stats().tuples_read, 0u);
}

TEST(TopKStarJoinTest, EmissionOrderIsScoreDescending) {
  auto rels = RandomRelations(5, 3, 50, 0.7);
  std::vector<VectorRankedSource> sources;
  sources.reserve(3);
  std::vector<RankedSource*> ptrs;
  for (auto& rel : rels) sources.emplace_back(rel);
  for (auto& s : sources) ptrs.push_back(&s);
  TopKStarJoin join(ptrs, StarJoinOptions{10, true});
  auto results = join.Run();
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_GE(results[i - 1].score, results[i].score - 1e-12);
  }
}

TEST(TopKStarJoinTest, MatchesFullJoinRandomized) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    size_t k = 2 + seed % 4;  // 2..5 inputs
    auto rels = RandomRelations(seed * 31, k, 40 + seed % 60, 0.5);
    for (bool grouped : {true, false}) {
      std::vector<VectorRankedSource> sources;
      sources.reserve(k);
      std::vector<RankedSource*> ptrs;
      for (auto& rel : rels) sources.emplace_back(rel);
      for (auto& s : sources) ptrs.push_back(&s);
      TopKStarJoin join(ptrs, StarJoinOptions{7, grouped});
      auto got = join.Run();
      auto want = FullJoin(rels, 7);
      ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
      for (size_t i = 0; i < got.size(); ++i) {
        // Ties may reorder ids; scores must match positionally.
        ASSERT_NEAR(got[i].score, want[i].score, 1e-9)
            << "seed " << seed << " pos " << i;
      }
    }
  }
}

TEST(TopKStarJoinTest, GroupedBoundNeverLooser) {
  // Drive two trackers through identical event streams; the paper's
  // grouped bound must always be <= the classic bound (§IV-B theorem).
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    size_t k = 2 + rng.NextBounded(3);
    StarThreshold grouped(k, true), classic(k, false);
    std::vector<double> heads(k);
    for (size_t i = 0; i < k; ++i) {
      heads[i] = 1.0;
      grouped.SetHeadScore(i, 1.0);
      classic.SetHeadScore(i, 1.0);
    }
    std::vector<std::pair<uint32_t, double>> partials;
    for (int step = 0; step < 30; ++step) {
      if (rng.NextBernoulli(0.5)) {
        size_t i = rng.NextBounded(k);
        heads[i] = std::max(0.0, heads[i] - rng.NextDouble() * 0.2);
        grouped.SetHeadScore(i, heads[i]);
        classic.SetHeadScore(i, heads[i]);
      } else {
        uint32_t mask = 1u + static_cast<uint32_t>(
                                 rng.NextBounded((1u << k) - 2));
        double sum = 0;
        for (size_t i = 0; i < k; ++i) {
          if (mask & (1u << i)) sum += rng.NextDouble();
        }
        grouped.AddPartial(mask, sum);
        partials.emplace_back(mask, sum);
      }
      EXPECT_LE(grouped.Bound(), classic.Bound() + 1e-12) << trial;
    }
  }
}

TEST(TopKStarJoinTest, GroupedThresholdUnblocksEarlier) {
  // Construct a stream where a completed result is provably safe under the
  // grouped bound but not under the classic one: the bucket holds only
  // low partial sums while some input still has a high max.
  std::vector<RankedTuple> r1 = Sorted({{1, 1.0}, {2, 0.5}, {3, 0.1}});
  std::vector<RankedTuple> r2 = Sorted({{1, 1.0}, {4, 0.5}, {5, 0.1}});
  for (bool grouped : {true, false}) {
    VectorRankedSource s1(r1), s2(r2);
    TopKStarJoin join({&s1, &s2}, StarJoinOptions{1, grouped});
    auto results = join.Run();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].id, 1u);
    EXPECT_NEAR(results[0].score, 2.0, 1e-12);
  }
  // Both find it; the statistic difference is in early emission counts,
  // covered by the randomized comparison below.
}

TEST(TopKStarJoinTest, GroupedEmitsAtLeastAsEarlyRandomized) {
  uint64_t grouped_wins = 0;
  for (uint64_t seed = 100; seed < 140; ++seed) {
    auto rels = RandomRelations(seed, 3, 60, 0.6);
    uint64_t reads[2];
    int idx = 0;
    for (bool grouped : {true, false}) {
      std::vector<VectorRankedSource> sources;
      sources.reserve(3);
      std::vector<RankedSource*> ptrs;
      for (auto& rel : rels) sources.emplace_back(rel);
      for (auto& s : sources) ptrs.push_back(&s);
      TopKStarJoin join(ptrs, StarJoinOptions{5, grouped});
      join.Run();
      reads[idx] = join.stats().tuples_read;
      ++idx;
    }
    // The tighter bound can never read more tuples to emit the same k.
    EXPECT_LE(reads[0], reads[1]) << "seed " << seed;
    if (reads[0] < reads[1]) ++grouped_wins;
  }
  // And it should actually help on a nontrivial fraction of inputs.
  EXPECT_GT(grouped_wins, 0u);
}

TEST(TopKStarJoinTest, ExhaustionFlushesEverything) {
  VectorRankedSource r1(Sorted({{1, 0.9}, {2, 0.1}}));
  VectorRankedSource r2(Sorted({{3, 0.8}, {2, 0.2}}));
  TopKStarJoin join({&r1, &r2}, StarJoinOptions{10, true});
  auto results = join.Run();
  ASSERT_EQ(results.size(), 1u);  // only id 2 joins
  EXPECT_EQ(results[0].id, 2u);
  EXPECT_FALSE(results[0].emitted_early);
}

TEST(TopKStarJoinTest, SingleSourceDegeneratesToTopK) {
  VectorRankedSource r1(Sorted({{1, 0.9}, {2, 0.7}, {3, 0.5}, {4, 0.1}}));
  TopKStarJoin join({&r1}, StarJoinOptions{2, true});
  auto results = join.Run();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].id, 1u);
  EXPECT_EQ(results[1].id, 2u);
}

TEST(TopKStarJoinTest, DuplicateIdWithinInputKeepsFirst) {
  // Set semantics: the second (lower-scored) occurrence of id 1 in r1 is
  // ignored, matching §III-B.
  std::vector<RankedTuple> r1 = {{1, 0.9}, {1, 0.3}};
  VectorRankedSource s1(r1);
  VectorRankedSource s2(Sorted({{1, 0.5}}));
  TopKStarJoin join({&s1, &s2}, StarJoinOptions{5, true});
  auto results = join.Run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_NEAR(results[0].score, 1.4, 1e-12);

  // Every input repeats id 1 after it completed: the repeats must not
  // start a second partial and complete id 1 again.
  VectorRankedSource t1({{1, 0.9}, {1, 0.5}});
  VectorRankedSource t2({{1, 0.8}, {1, 0.4}});
  TopKStarJoin repeated({&t1, &t2}, StarJoinOptions{5, true});
  auto once = repeated.Run();
  ASSERT_EQ(once.size(), 1u);
  EXPECT_EQ(once[0].id, 1u);
  EXPECT_NEAR(once[0].score, 1.7, 1e-12);
}

}  // namespace
}  // namespace xtopk
