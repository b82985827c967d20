// Cost-based planning is a pure performance feature: on every corpus,
// workload, and backend, a DP-planned query must return bit-identical
// results to the observed-size heuristic. This suite sweeps the
// differential harness's seeded corpora over memory / disk / segmented
// backends with the planner on and off, and checks the plan cache's
// watermark behavior: hits on repeats, invalidation on seal and compact.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/join_search.h"
#include "core/plan_cache.h"
#include "core/updatable_engine.h"
#include "index/disk_index.h"
#include "index/index_builder.h"
#include "index/segment.h"
#include "index/segment_builder.h"
#include "storage/segment_manifest.h"
#include "testing/corpus.h"
#include "testing/durable.h"
#include "xml/jdewey_builder.h"

namespace xtopk {
namespace {

using testing::CorpusSpec;
using testing::MakeCorpusSpec;
using testing::MakeCorpusTree;
using testing::MakeRandomWorkload;
using testing::WorkloadQuery;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Bit-identical comparison: same count, same nodes in the same order,
/// exactly equal scores (the join emits matches in value order and sums
/// scores in query-keyword order — neither depends on the join order, so
/// the planned and heuristic paths must agree to the last bit).
void ExpectBitIdentical(const std::vector<SearchResult>& got,
                        const std::vector<SearchResult>& want,
                        const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].node, want[i].node) << label << " rank " << i;
    EXPECT_EQ(got[i].level, want[i].level) << label << " rank " << i;
    EXPECT_EQ(got[i].score, want[i].score) << label << " rank " << i;
  }
}

class PlannerCorrectnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlannerCorrectnessTest, PlannedEqualsHeuristicOnEveryBackend) {
  const uint64_t seed = GetParam();
  CorpusSpec spec = MakeCorpusSpec(seed);
  XmlTree tree = MakeCorpusTree(spec);
  std::vector<WorkloadQuery> workload = MakeRandomWorkload(spec, 8);

  IndexBuildOptions build_options;
  build_options.index_tag_names = false;
  IndexBuilder builder(tree, build_options);
  JDeweyIndex jindex = builder.BuildJDeweyIndex();
  ASSERT_TRUE(jindex.has_stats()) << "build-time stats missing";

  // Disk backend (stats from the auto-written manifest sidecar).
  std::string disk_path = TempPath("planner_corr_" + std::to_string(seed));
  ASSERT_TRUE(DiskIndexWriter::Write(jindex, disk_path).ok());
  auto env = DiskIndexEnv::Open(disk_path, DiskIndexOptions{});
  ASSERT_TRUE(env.ok()) << env.status().ToString();

  // Segmented backend: sealed disk segments + memtable, stats aggregated
  // from the manifests alone.
  JDeweyEncoding enc = JDeweyBuilder::Assign(tree, build_options.jdewey_gap);
  size_t sealed_parts = 1 + static_cast<size_t>(seed % 3);
  std::vector<std::vector<NodeId>> groups(sealed_parts + 1);
  for (NodeId id = 0; id < tree.node_count(); ++id) {
    groups[id % groups.size()].push_back(id);
  }
  SegmentedIndex segmented;
  segmented.SetCorpusNodes(tree.node_count());
  std::vector<std::string> cleanup = {disk_path, disk_path + ".manifest"};
  for (size_t i = 0; i < sealed_parts; ++i) {
    JDeweyIndex segment =
        BuildSegmentIndex(tree, enc, groups[i], build_options);
    std::string path = TempPath("planner_corr_" + std::to_string(seed) +
                                "_seg" + std::to_string(i));
    ASSERT_TRUE(
        DiskIndexWriter::Write(segment, path, {}, groups[i].size()).ok());
    ASSERT_TRUE(segmented.AddDiskSegment(path).ok());
    cleanup.push_back(path);
    cleanup.push_back(path + ".manifest");
  }
  segmented.SetMemtable(
      Memtable::Extend(
          nullptr, BuildSegmentIndex(tree, enc, groups.back(), build_options),
          build_options.stats_buckets, *segmented.Pin()->state()),
      tree.node_count());

  for (size_t qi = 0; qi < workload.size(); ++qi) {
    const WorkloadQuery& query = workload[qi];
    std::string label = "seed=" + std::to_string(seed) +
                        " query=" + std::to_string(qi);

    bool all_terms_present = true;
    for (const std::string& kw : query.keywords) {
      if (jindex.Frequency(kw) == 0) all_terms_present = false;
    }
    auto run = [&](TermSource* source, bool planned) {
      JoinSearchOptions options;
      options.semantics = query.semantics;
      options.use_planner = planned;
      JoinSearch search(source, options);
      std::vector<SearchResult> results = search.Search(query.keywords);
      EXPECT_TRUE(search.status().ok()) << label;
      if (planned && all_terms_present) {
        EXPECT_TRUE(search.stats().planned) << label << " planner inactive";
      }
      return results;
    };

    // Memory backend.
    MemoryTermSource memory(jindex);
    std::vector<SearchResult> want = run(&memory, false);
    ExpectBitIdentical(run(&memory, true), want, label + " memory");

    // Disk backend (one session per run; sessions are single-use cursors).
    {
      auto heuristic_session = (*env)->NewSession();
      auto planned_session = (*env)->NewSession();
      ExpectBitIdentical(run(planned_session.get(), true),
                         run(heuristic_session.get(), false),
                         label + " disk");
    }

    // Segmented backend.
    SegmentSetReader reader(segmented.Pin());
    ExpectBitIdentical(run(&reader, true), run(&reader, false),
                       label + " segmented");
  }
  for (const std::string& path : cleanup) std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerCorrectnessTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u));

/// A corpus where "alpha" and "beta" definitely occur (cache tests must
/// not depend on a random corpus happening to plant both terms).
XmlTree MakePlantedTree() {
  XmlTree tree;
  NodeId root = tree.CreateRoot("db");
  for (int i = 0; i < 20; ++i) {
    NodeId group = tree.AddChild(root, "g");
    NodeId x = tree.AddChild(group, "x");
    tree.AppendText(x, "alpha");
    NodeId y = tree.AddChild(group, "y");
    tree.AppendText(y, i % 2 == 0 ? "beta alpha" : "beta");
  }
  return tree;
}

TEST(PlanCacheBehaviorTest, RepeatedQueriesHitAfterFirstMiss) {
  XmlTree tree = MakePlantedTree();
  IndexBuilder builder(tree, IndexBuildOptions{});
  JDeweyIndex jindex = builder.BuildJDeweyIndex();
  MemoryTermSource source(jindex);

  PlanCache cache;
  JoinSearchOptions options;
  options.plan_cache = &cache;
  JoinSearch search(&source, options);
  std::vector<std::string> keywords = {"alpha", "beta"};
  std::vector<SearchResult> first = search.Search(keywords);
  EXPECT_FALSE(search.stats().plan_cache_hit);
  for (int i = 0; i < 19; ++i) {
    ExpectBitIdentical(search.Search(keywords), first, "repeat");
    EXPECT_TRUE(search.stats().plan_cache_hit);
  }
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 19u);
  // >= 90% hit rate on the repeated-query loop (acceptance bar).
  double rate = static_cast<double>(cache.hits()) /
                static_cast<double>(cache.hits() + cache.misses());
  EXPECT_GE(rate, 0.9);
}

TEST(PlanCacheBehaviorTest, KeywordOrderSharesOneEntry) {
  XmlTree tree = MakePlantedTree();
  IndexBuilder builder(tree, IndexBuildOptions{});
  JDeweyIndex jindex = builder.BuildJDeweyIndex();
  MemoryTermSource source(jindex);

  PlanCache cache;
  JoinSearchOptions options;
  options.plan_cache = &cache;
  JoinSearch search(&source, options);
  search.Search({"alpha", "beta"});
  search.Search({"beta", "alpha"});  // same set, different spelling
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(PlanCacheBehaviorTest, SealAndCompactInvalidate) {
  testing::ScopedDataDir dir("planner_cache_seal_compact");
  std::unique_ptr<UpdatableEngine> durable =
      testing::OpenDurableNoBackground(MakePlantedTree(), dir.path());
  ASSERT_NE(durable, nullptr);
  UpdatableEngine& engine = *durable;
  std::vector<std::string> keywords = {"alpha", "beta"};

  auto hits_before = engine.Search(keywords);
  uint64_t misses_after_first = engine.plan_cache().misses();
  EXPECT_GE(misses_after_first, 1u);
  engine.Search(keywords);
  EXPECT_GE(engine.plan_cache().hits(), 1u) << "repeat must hit";

  // Sealing bumps the segmented index version: the cached plan's
  // watermark no longer matches, so the next lookup misses and replans.
  // The memtable only covers post-construction nodes, so feed it first.
  engine.AddElement(engine.tree().root(), "n", "alpha beta");
  ASSERT_TRUE(engine.SealMemtable().ok());
  engine.AddElement(engine.tree().root(), "n", "alpha beta");
  uint64_t hits_before_requery = engine.plan_cache().hits();
  uint64_t misses_before_requery = engine.plan_cache().misses();
  engine.Search(keywords);
  EXPECT_EQ(engine.plan_cache().hits(), hits_before_requery)
      << "stale plan served after seal";
  EXPECT_GT(engine.plan_cache().misses(), misses_before_requery);
  engine.Search(keywords);
  EXPECT_GT(engine.plan_cache().hits(), hits_before_requery)
      << "fresh plan must be cached again";

  // Compaction invalidates the same way.
  ASSERT_TRUE(engine.SealMemtable().ok());
  ASSERT_TRUE(engine.Compact().ok());
  uint64_t hits_before_compacted = engine.plan_cache().hits();
  engine.Search(keywords);
  EXPECT_EQ(engine.plan_cache().hits(), hits_before_compacted)
      << "stale plan served after compact";
  engine.Search(keywords);
  EXPECT_GT(engine.plan_cache().hits(), hits_before_compacted);

  (void)hits_before;
}

TEST(PlanCacheBehaviorTest, EnvEscapeHatchDisablesPlanning) {
  XmlTree tree = MakePlantedTree();
  IndexBuilder builder(tree, IndexBuildOptions{});
  JDeweyIndex jindex = builder.BuildJDeweyIndex();
  MemoryTermSource source(jindex);

  setenv("XTOPK_DISABLE_PLANNER", "1", 1);
  PlanCache cache;
  JoinSearchOptions options;
  options.plan_cache = &cache;
  JoinSearch search(&source, options);
  std::vector<SearchResult> disabled = search.Search({"alpha", "beta"});
  EXPECT_FALSE(search.stats().planned);
  EXPECT_EQ(cache.size(), 0u);
  unsetenv("XTOPK_DISABLE_PLANNER");
  ExpectBitIdentical(search.Search({"alpha", "beta"}), disabled, "env off");
  EXPECT_TRUE(search.stats().planned);
}

}  // namespace
}  // namespace xtopk
