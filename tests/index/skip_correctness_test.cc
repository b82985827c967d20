#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/join_search.h"
#include "index/disk_index.h"
#include "index/index_builder.h"
#include "obs/metrics.h"
#include "storage/compression.h"
#include "testing/corpus.h"

namespace xtopk {
namespace {

using testing::MakeRandomTree;

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

void ExpectSameResults(const std::vector<SearchResult>& a,
                       const std::vector<SearchResult>& b,
                       const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].node, b[i].node) << what << " result " << i;
    EXPECT_EQ(a[i].score, b[i].score) << what << " result " << i;  // bit-equal
  }
}

/// Runs the same query sequence against a skip-enabled and a skip-disabled
/// environment and demands bit-identical results, including session reuse
/// (the second query widens partial columns the first one loaded).
void CheckSkipTransparent(const std::string& path,
                          const std::vector<std::vector<std::string>>& queries) {
  DiskIndexOptions skip_on;
  skip_on.enable_skip = true;
  DiskIndexOptions skip_off;
  skip_off.enable_skip = false;
  auto env_on = DiskIndexEnv::Open(path, skip_on);
  auto env_off = DiskIndexEnv::Open(path, skip_off);
  ASSERT_TRUE(env_on.ok());
  ASSERT_TRUE(env_off.ok());
  EXPECT_TRUE((*env_on)->skip_enabled());
  EXPECT_FALSE((*env_off)->skip_enabled());

  for (Semantics semantics : {Semantics::kElca, Semantics::kSlca}) {
    auto session_on = (*env_on)->NewSession();
    auto session_off = (*env_off)->NewSession();
    JoinSearchOptions options;
    options.semantics = semantics;
    for (const auto& query : queries) {
      auto got_on = session_on->SearchComplete(query, options);
      auto got_off = session_off->SearchComplete(query, options);
      ASSERT_TRUE(got_on.ok()) << got_on.status().ToString();
      ASSERT_TRUE(got_off.ok()) << got_off.status().ToString();
      ExpectSameResults(*got_on, *got_off,
                        "semantics=" + std::to_string(static_cast<int>(
                            semantics)) + " q0=" + query[0]);
    }
  }
}

TEST(SkipCorrectnessTest, SkipOnOffBitIdenticalOnRandomCorpora) {
  for (uint64_t seed : {301u, 302u, 303u}) {
    XmlTree tree = MakeRandomTree(seed, 900, 4, 9,
                                  {"alpha", "beta", "gamma"}, 0.12);
    IndexBuildOptions build;
    build.index_tag_names = false;
    IndexBuilder builder(tree, build);
    JDeweyIndex jindex = builder.BuildJDeweyIndex();
    std::string path = TempPath("skip_random");
    ASSERT_TRUE(DiskIndexWriter::Write(jindex, path).ok());
    CheckSkipTransparent(path, {{"alpha", "beta"},
                                {"beta", "gamma"},
                                {"alpha", "beta", "gamma"},
                                {"alpha", "beta"}});
    std::remove(path.c_str());
  }
}

TEST(SkipCorrectnessTest, PartialLoadsHappenAndStayCorrect) {
  // "rare" lives in a narrow band of an otherwise wide tree, so the seed
  // list's value range prunes most blocks of "common"'s deep columns.
  XmlTree tree;
  NodeId root = tree.CreateRoot("r");
  for (int branch = 0; branch < 1200; ++branch) {
    NodeId mid = tree.AddChild(root, "m");
    NodeId leaf = tree.AddChild(mid, "l");
    tree.AppendText(leaf, "common");
    if (branch >= 600 && branch < 608) tree.AppendText(leaf, "rare");
  }
  IndexBuildOptions build;
  build.index_tag_names = false;
  IndexBuilder builder(tree, build);
  JDeweyIndex jindex = builder.BuildJDeweyIndex();
  std::string path = TempPath("skip_partial");
  ASSERT_TRUE(DiskIndexWriter::Write(jindex, path).ok());

  auto& registry = obs::MetricsRegistry::Global();
  uint64_t partial_before =
      registry.GetCounter("storage.skip.partial_loads").value();
  uint64_t skipped_before =
      registry.GetCounter("storage.skip.blocks_skipped").value();

  CheckSkipTransparent(path, {{"rare", "common"}});

  EXPECT_GT(registry.GetCounter("storage.skip.partial_loads").value(),
            partial_before);
  EXPECT_GT(registry.GetCounter("storage.skip.blocks_skipped").value(),
            skipped_before);
  std::remove(path.c_str());
}

TEST(SkipCorrectnessTest, RunLengthColumnBoundedLoadFallsBackToFullDecode) {
  // kAuto stores long-run columns run-length encoded. Those carry no skip
  // directory, so a bounded load of one must decode the whole column —
  // never a partial one — and answer bit-identically.
  XmlTree tree = MakeRandomTree(304, 700, 4, 8, {"alpha", "beta"}, 0.15);
  IndexBuildOptions build;
  build.index_tag_names = false;
  IndexBuilder builder(tree, build);
  JDeweyIndex jindex = builder.BuildJDeweyIndex();
  std::string path = TempPath("skip_run_length");
  ASSERT_TRUE(DiskIndexWriter::Write(jindex, path).ok());
  auto env = DiskIndexEnv::Open(path);
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  ASSERT_TRUE((*env)->skip_enabled());

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  size_t rle_levels = 0;
  for (const char* term : {"alpha", "beta"}) {
    const JDeweyList* want = jindex.GetList(term);
    ASSERT_NE(want, nullptr) << term;
    for (uint32_t level = 1; level <= want->max_length; ++level) {
      const Column& column = want->columns[level - 1];
      std::string blob;
      EncodeColumn(column, ColumnCodec::kAuto, &blob);
      if (static_cast<ColumnCodec>(blob[0]) != ColumnCodec::kRunLength ||
          column.run_count() < 2) {
        continue;
      }
      ++rle_levels;
      // Bounds that admit only the column's first value at this level.
      std::vector<ValueBounds> bounds(level);
      bounds[level - 1].lo = column.runs().front().value;
      bounds[level - 1].hi = column.runs().front().value;
      uint64_t partial_before =
          registry.GetCounter("storage.skip.partial_loads").value();
      auto session = (*env)->NewSession();
      auto got = session->LoadList(term, level, false, &bounds);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_NE(*got, nullptr);
      const Column& loaded = (*got)->columns[level - 1];
      ASSERT_EQ(loaded.run_count(), column.run_count())
          << term << " level " << level;
      for (size_t r = 0; r < column.run_count(); ++r) {
        EXPECT_EQ(loaded.runs()[r], column.runs()[r]);
      }
      EXPECT_EQ(registry.GetCounter("storage.skip.partial_loads").value(),
                partial_before);
    }
  }
  EXPECT_GT(rle_levels, 0u) << "corpus produced no run-length column";

  JoinSearch memory_search(jindex, {});
  auto want = memory_search.Search({"alpha", "beta"});
  auto got = (*env)->NewSession()->SearchComplete({"alpha", "beta"});
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectSameResults(*got, want, "run-length image");
  CheckSkipTransparent(path, {{"alpha", "beta"}});
  std::remove(path.c_str());
  std::remove((path + ".manifest").c_str());
}

TEST(SkipCorrectnessTest, DisableSkipEnvOverridesOptions) {
  XmlTree tree = MakeRandomTree(305, 200, 4, 6, {"alpha"}, 0.2);
  IndexBuildOptions build;
  build.index_tag_names = false;
  IndexBuilder builder(tree, build);
  JDeweyIndex jindex = builder.BuildJDeweyIndex();
  std::string path = TempPath("skip_env");
  ASSERT_TRUE(DiskIndexWriter::Write(jindex, path).ok());

  ASSERT_EQ(setenv("XTOPK_DISABLE_SKIP", "1", 1), 0);
  auto disabled = DiskIndexEnv::Open(path, {});
  ASSERT_EQ(setenv("XTOPK_DISABLE_SKIP", "0", 1), 0);
  auto zero_means_on = DiskIndexEnv::Open(path, {});
  ASSERT_EQ(unsetenv("XTOPK_DISABLE_SKIP"), 0);
  auto unset = DiskIndexEnv::Open(path, {});

  ASSERT_TRUE(disabled.ok());
  ASSERT_TRUE(zero_means_on.ok());
  ASSERT_TRUE(unset.ok());
  EXPECT_FALSE((*disabled)->skip_enabled());
  EXPECT_TRUE((*zero_means_on)->skip_enabled());
  EXPECT_TRUE((*unset)->skip_enabled());
  std::remove(path.c_str());
}

TEST(SkipCorrectnessTest, TopKAfterPartialLoadUpgradesToFull) {
  // SearchComplete partially loads columns; SearchTopK on the same session
  // needs them whole. The coverage state must upgrade, not reuse partials.
  XmlTree tree = MakeRandomTree(306, 800, 4, 8, {"alpha", "beta"}, 0.15);
  IndexBuildOptions build;
  build.index_tag_names = false;
  IndexBuilder builder(tree, build);
  JDeweyIndex jindex = builder.BuildJDeweyIndex();
  TopKIndex memory_topk = builder.BuildTopKIndex(jindex);
  std::string path = TempPath("skip_then_topk");
  ASSERT_TRUE(DiskIndexWriter::Write(jindex, path).ok());

  DiskIndexOptions skip_on;
  skip_on.enable_skip = true;
  auto env = DiskIndexEnv::Open(path, skip_on);
  ASSERT_TRUE(env.ok());
  auto session = (*env)->NewSession();
  ASSERT_TRUE(session->SearchComplete({"alpha", "beta"}).ok());

  TopKSearchOptions topk_options;
  topk_options.k = 5;
  TopKSearch memory_search(memory_topk, topk_options);
  auto want = memory_search.Search({"alpha", "beta"});
  auto got = session->SearchTopK({"alpha", "beta"}, topk_options);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ((*got)[i].node, want[i].node);
    EXPECT_NEAR((*got)[i].score, want[i].score, 1e-12);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace xtopk
