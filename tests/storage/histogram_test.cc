// Planner statistics: equal-height level histograms must be exact below
// the bucket cap, merge like disjoint unions across segments (associative
// up to coalescing), estimate overlaps sanely, and survive the manifest v2
// round trip — with v1 manifests still loading as rows-only stats.

#include "storage/histogram.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "storage/column.h"
#include "storage/segment_manifest.h"
#include "util/crc32c.h"
#include "util/rng.h"

namespace xtopk {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

Column MakeColumnOfValues(const std::vector<uint32_t>& values) {
  Column col;
  uint32_t row = 0;
  for (uint32_t v : values) col.Append(row++, v);
  return col;
}

/// A histogram over `count` distinct values spaced evenly from `first`.
LevelHistogram MakeUniform(uint32_t first, uint32_t stride, uint32_t count,
                           size_t max_buckets) {
  std::vector<uint32_t> values;
  for (uint32_t i = 0; i < count; ++i) values.push_back(first + i * stride);
  return LevelHistogram::FromColumn(MakeColumnOfValues(values), max_buckets);
}

TEST(LevelHistogramTest, SmallColumnIsExact) {
  Column col = MakeColumnOfValues({3, 7, 7, 7, 9, 20, 21});
  LevelHistogram h = LevelHistogram::FromColumn(col, 32);
  // 5 distinct values (runs), under the cap: total is exact and every
  // value falls in some bucket with unit weight.
  EXPECT_DOUBLE_EQ(h.total(), 5.0);
  EXPECT_LE(h.buckets().size(), 5u);
  EXPECT_DOUBLE_EQ(h.EstimateInRange(0, 1000), 5.0);
  EXPECT_DOUBLE_EQ(h.EstimateInRange(22, 1000), 0.0);
  EXPECT_DOUBLE_EQ(h.EstimateInRange(0, 2), 0.0);
}

TEST(LevelHistogramTest, CapRespectedAndTotalPreserved) {
  LevelHistogram h = MakeUniform(0, 3, 1000, 16);
  EXPECT_LE(h.buckets().size(), 16u);
  EXPECT_DOUBLE_EQ(h.total(), 1000.0);
  // Equal-height: no bucket vastly outweighs the mean.
  for (const auto& b : h.buckets()) {
    EXPECT_LE(b.count, 2.0 * 1000.0 / 16.0 + 1.0);
  }
}

TEST(LevelHistogramTest, OverlapOfIdenticalDenseSetsIsTotal) {
  // Dense values (every integer in the range present): per-interval
  // density is 1, so the capped independence estimate da*db/width hits
  // the cap and the self-overlap recovers the full total.
  LevelHistogram h = MakeUniform(10, 1, 200, 32);
  EXPECT_NEAR(h.EstimateOverlap(h), 200.0, 200.0 * 0.05);
}

TEST(LevelHistogramTest, OverlapOfIdenticalSparseSetsIsScaledByDensity) {
  // Every second integer present: the estimator assumes independence
  // within a bucket, so identical stride-2 sets are priced near total/2
  // — an underestimate by design, but bounded and symmetric.
  LevelHistogram h = MakeUniform(10, 2, 200, 32);
  double ov = h.EstimateOverlap(h);
  EXPECT_GE(ov, 200.0 * 0.4);
  EXPECT_LE(ov, 200.0);
}

TEST(LevelHistogramTest, OverlapOfDisjointRangesIsZero) {
  LevelHistogram a = MakeUniform(0, 1, 100, 32);
  LevelHistogram b = MakeUniform(1000, 1, 100, 32);
  EXPECT_DOUBLE_EQ(a.EstimateOverlap(b), 0.0);
  EXPECT_DOUBLE_EQ(b.EstimateOverlap(a), 0.0);
}

TEST(LevelHistogramTest, OverlapNeverExceedsEitherTotal) {
  Rng rng(99);
  for (int round = 0; round < 50; ++round) {
    std::vector<uint32_t> va, vb;
    uint32_t a = 0, b = 0;
    for (int i = 0; i < 60; ++i) {
      a += 1 + static_cast<uint32_t>(rng.NextBounded(20));
      va.push_back(a);
      b += 1 + static_cast<uint32_t>(rng.NextBounded(20));
      vb.push_back(b);
    }
    LevelHistogram ha = LevelHistogram::FromColumn(MakeColumnOfValues(va), 8);
    LevelHistogram hb = LevelHistogram::FromColumn(MakeColumnOfValues(vb), 8);
    double ov = ha.EstimateOverlap(hb);
    EXPECT_GE(ov, 0.0);
    EXPECT_LE(ov, ha.total() + 1e-9);
    EXPECT_LE(ov, hb.total() + 1e-9);
    EXPECT_NEAR(ov, hb.EstimateOverlap(ha), 1e-6);  // symmetric
  }
}

TEST(LevelHistogramTest, MergeOfDisjointSegmentsAddsTotals) {
  LevelHistogram a = MakeUniform(0, 1, 120, 32);
  LevelHistogram b = MakeUniform(500, 1, 80, 32);
  LevelHistogram merged = a;
  merged.Merge(b, kMergedStatsBuckets);
  EXPECT_NEAR(merged.total(), 200.0, 1e-6);
  EXPECT_NEAR(merged.EstimateInRange(0, 130), 120.0, 1.0);
  EXPECT_NEAR(merged.EstimateInRange(500, 600), 80.0, 1.0);
}

/// Associativity property: (a + b) + c and a + (b + c) must describe the
/// same distribution. Coalescing can pick different bucket boundaries, so
/// the comparison is on the derived quantities the planner reads — total
/// and range estimates — not raw buckets.
TEST(LevelHistogramTest, MergeIsAssociativeOnDerivedEstimates) {
  Rng rng(4242);
  for (int round = 0; round < 20; ++round) {
    LevelHistogram parts[3];
    uint32_t top = 0;
    for (int p = 0; p < 3; ++p) {
      std::vector<uint32_t> values;
      uint32_t v = static_cast<uint32_t>(rng.NextBounded(2000));
      size_t n = 20 + rng.NextBounded(200);
      for (size_t i = 0; i < n; ++i) {
        v += 1 + static_cast<uint32_t>(rng.NextBounded(15));
        values.push_back(v);
      }
      top = std::max(top, v);
      parts[p] = LevelHistogram::FromColumn(MakeColumnOfValues(values), 32);
    }
    LevelHistogram left = parts[0];
    left.Merge(parts[1], kMergedStatsBuckets);
    left.Merge(parts[2], kMergedStatsBuckets);
    LevelHistogram bc = parts[1];
    bc.Merge(parts[2], kMergedStatsBuckets);
    LevelHistogram right = parts[0];
    right.Merge(bc, kMergedStatsBuckets);

    ASSERT_NEAR(left.total(), right.total(), 1e-6 * left.total());
    for (uint32_t lo = 0; lo <= top; lo += top / 7 + 1) {
      uint32_t hi = lo + top / 5 + 1;
      double el = left.EstimateInRange(lo, hi);
      double er = right.EstimateInRange(lo, hi);
      // Tolerance covers coalescing granularity: both orders keep at most
      // kMergedStatsBuckets buckets, but may cut them differently.
      double tol = 0.05 * left.total() + 1.0;
      EXPECT_NEAR(el, er, tol) << "round " << round << " range [" << lo
                               << ", " << hi << "]";
    }
  }
}

TEST(TermStatsTest, MergeAddsRowsAndHistograms) {
  TermStats a;
  a.rows = 10;
  a.levels.push_back(MakeUniform(0, 1, 10, 32));
  TermStats b;
  b.rows = 20;
  b.levels.push_back(MakeUniform(100, 1, 20, 32));
  a.Merge(b, kMergedStatsBuckets);
  EXPECT_EQ(a.rows, 30u);
  ASSERT_TRUE(a.has_histograms());
  EXPECT_NEAR(a.levels[0].total(), 30.0, 1e-6);
}

TEST(TermStatsTest, RowsOnlyPartPoisonsHistograms) {
  // A v1 segment contributes rows without histograms: the merged stats
  // must degrade to rows-only rather than undercount the histograms.
  TermStats with_hist;
  with_hist.rows = 10;
  with_hist.levels.push_back(MakeUniform(0, 1, 10, 32));
  TermStats rows_only;
  rows_only.rows = 5;
  with_hist.Merge(rows_only, kMergedStatsBuckets);
  EXPECT_EQ(with_hist.rows, 15u);
  EXPECT_FALSE(with_hist.has_histograms());
}

TEST(TermStatsTest, EmptyPartDoesNotPoison) {
  TermStats with_hist;
  with_hist.rows = 10;
  with_hist.levels.push_back(MakeUniform(0, 1, 10, 32));
  TermStats empty;  // rows == 0: nothing to describe, nothing poisoned
  with_hist.Merge(empty, kMergedStatsBuckets);
  EXPECT_EQ(with_hist.rows, 10u);
  EXPECT_TRUE(with_hist.has_histograms());
}

SegmentManifest MakeManifestWithHistograms() {
  SegmentManifest manifest;
  manifest.covered_nodes = 123;
  SegmentTermStats alpha;
  alpha.term = "alpha";
  alpha.rows = 40;
  alpha.max_tf = 3;
  alpha.levels.push_back(MakeUniform(5, 2, 40, 16));
  alpha.levels.push_back(MakeUniform(0, 1, 12, 16));
  SegmentTermStats beta;
  beta.term = "beta";
  beta.rows = 7;
  beta.max_tf = 1;
  beta.levels.push_back(MakeUniform(100, 3, 7, 16));
  manifest.terms.push_back(std::move(alpha));
  manifest.terms.push_back(std::move(beta));
  return manifest;
}

TEST(ManifestV2Test, HistogramsRoundTrip) {
  SegmentManifest manifest = MakeManifestWithHistograms();
  std::string path = TempPath("manifest_v2_roundtrip");
  ASSERT_TRUE(manifest.Save(path).ok());
  auto loaded = SegmentManifest::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->terms.size(), 2u);
  for (size_t t = 0; t < 2; ++t) {
    const auto& got = loaded->terms[t];
    const auto& want = manifest.terms[t];
    EXPECT_EQ(got.term, want.term);
    EXPECT_EQ(got.rows, want.rows);
    EXPECT_EQ(got.max_tf, want.max_tf);
    ASSERT_EQ(got.levels.size(), want.levels.size()) << want.term;
    for (size_t l = 0; l < want.levels.size(); ++l) {
      ASSERT_EQ(got.levels[l].buckets().size(),
                want.levels[l].buckets().size());
      for (size_t b = 0; b < want.levels[l].buckets().size(); ++b) {
        EXPECT_EQ(got.levels[l].buckets()[b].lo,
                  want.levels[l].buckets()[b].lo);
        EXPECT_EQ(got.levels[l].buckets()[b].hi,
                  want.levels[l].buckets()[b].hi);
        EXPECT_DOUBLE_EQ(got.levels[l].buckets()[b].count,
                         want.levels[l].buckets()[b].count);
      }
    }
  }
  std::remove(path.c_str());
}

TEST(ManifestV2Test, RowsOnlyTermsLoadAndMergeAsRowsOnly) {
  // A term persisted without histograms loads rows-only, and merging it
  // (as a memtable's rows-only part merges) poisons the merged histograms
  // instead of inventing a distribution for the missing part.
  SegmentManifest manifest = MakeManifestWithHistograms();
  manifest.terms[1].levels.clear();
  std::string path = TempPath("manifest_rows_only");
  ASSERT_TRUE(manifest.Save(path).ok());
  auto loaded = SegmentManifest::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->terms.size(), 2u);
  EXPECT_TRUE(loaded->terms[0].has_histograms());
  EXPECT_FALSE(loaded->terms[1].has_histograms());
  EXPECT_EQ(loaded->terms[1].rows, 7u);

  TermStats merged;
  merged.Merge(loaded->terms[0], kMergedStatsBuckets);
  EXPECT_TRUE(merged.has_histograms());
  merged.Merge(loaded->terms[1], kMergedStatsBuckets);
  EXPECT_EQ(merged.rows, 47u);
  EXPECT_FALSE(merged.has_histograms());
  std::remove(path.c_str());
}

TEST(ManifestV2Test, EarlierManifestVersionsAreCorruption) {
  // Earlier manifest versions carry a valid checksum but a retired magic:
  // Load must name them Corruption, never parse them as the current
  // layout.
  for (const char* magic : {"XTKSMAN1", "XTKSMAN2"}) {
    std::string buf(magic, 8);
    // covered_nodes 42, one term "alpha" with rows 3, max_tf 2, 0 levels.
    buf.append("\x2a\x01\x05" "alpha" "\x03\x02\x00", 11);
    uint32_t crc = crc32c::Compute(buf);
    for (int i = 0; i < 4; ++i) {
      buf.push_back(static_cast<char>(crc >> (8 * i)));
    }
    std::string path = TempPath(std::string("manifest_") + magic);
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(buf.data(), 1, buf.size(), f), buf.size());
    std::fclose(f);
    auto loaded = SegmentManifest::Load(path);
    ASSERT_FALSE(loaded.ok()) << magic;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption) << magic;
    std::remove(path.c_str());
  }
}

TEST(ManifestV2Test, FlippedByteIsDetected) {
  SegmentManifest manifest = MakeManifestWithHistograms();
  std::string path = TempPath("manifest_v2_corrupt");
  ASSERT_TRUE(manifest.Save(path).ok());
  // Flip one byte in the middle of the histogram block.
  FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  ASSERT_GT(size, 16);
  std::fseek(f, size / 2, SEEK_SET);
  int c = std::fgetc(f);
  std::fseek(f, size / 2, SEEK_SET);
  std::fputc(c ^ 0x40, f);
  std::fclose(f);
  auto loaded = SegmentManifest::Load(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace xtopk
