// Differential correctness harness: on seeded random corpora and
// workloads, every execution configuration of the join-based engine —
// in-memory, disk-resident across codecs (legacy delta vs group-varint),
// checksummed and legacy segment formats, skip-decode on/off, galloping
// joins on/off — must produce exactly the node sets and scores of the
// independent baselines (the stack-based DIL algorithm and the
// Indexed-Lookup eager algorithm), and top-K must equal the sorted prefix
// of the complete result. A disagreement anywhere pins the failing seed.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "baseline/indexed_lookup.h"
#include "baseline/stack_search.h"
#include "core/join_search.h"
#include "core/topk_search.h"
#include "index/disk_index.h"
#include "index/index_builder.h"
#include "index/segment.h"
#include "index/segment_builder.h"
#include "storage/segment_manifest.h"
#include "testing/corpus.h"
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

void ExpectSameResults(const std::vector<SearchResult>& got_in,
                       const std::vector<SearchResult>& want_in,
                       const std::string& label) {
  std::vector<SearchResult> got = got_in, want = want_in;
  SortByNode(&got);
  SortByNode(&want);
  std::set<NodeId> got_nodes, want_nodes;
  for (const auto& r : got) got_nodes.insert(r.node);
  for (const auto& r : want) want_nodes.insert(r.node);
  ASSERT_EQ(got_nodes, want_nodes) << label;
  ASSERT_EQ(got.size(), want.size()) << label << " (duplicate results)";
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i].score, want[i].score, 1e-6)
        << label << " node " << got[i].node;
  }
}

/// Top-K must rank like the sorted complete result: same size, the same
/// score at every rank, and every returned node present in the complete
/// set with a matching score (ties may order differently only among
/// exactly-equal scores, which the node-presence check still covers).
void ExpectTopKMatchesComplete(const std::vector<SearchResult>& topk,
                               std::vector<SearchResult> complete, size_t k,
                               const std::string& label) {
  SortByScoreDesc(&complete);
  size_t want_size = std::min(k, complete.size());
  ASSERT_EQ(topk.size(), want_size) << label;
  for (size_t i = 0; i < topk.size(); ++i) {
    ASSERT_NEAR(topk[i].score, complete[i].score, 1e-6)
        << label << " rank " << i;
    bool found = false;
    for (const auto& r : complete) {
      if (r.node == topk[i].node) {
        ASSERT_NEAR(topk[i].score, r.score, 1e-6) << label;
        found = true;
        break;
      }
    }
    ASSERT_TRUE(found) << label << " node " << topk[i].node
                       << " not in complete result";
  }
}

/// The oracle: the stack-based DIL baseline.
std::vector<SearchResult> StackOracle(const XmlTree& tree,
                                      const DeweyIndex& dindex,
                                      Semantics semantics,
                                      const std::vector<std::string>& keywords) {
  StackSearchOptions options;
  options.semantics = semantics;
  StackSearch search(tree, dindex, options);
  return search.Search(keywords);
}

/// One disk configuration under test.
struct DiskConfig {
  bool skip;
  const char* name;
};

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialTest, AllEnginesAgreeOnSeededCorpus) {
  const uint64_t seed = GetParam();
  CorpusSpec spec = MakeCorpusSpec(seed);
  XmlTree tree = MakeCorpusTree(spec);
  std::vector<WorkloadQuery> workload = MakeRandomWorkload(spec, 6);

  IndexBuildOptions build_options;
  build_options.index_tag_names = false;
  IndexBuilder builder(tree, build_options);
  JDeweyIndex jindex = builder.BuildJDeweyIndex();
  DeweyIndex dindex = builder.BuildDeweyIndex();

  // The same corpus with structure-aware compression enabled: DAG-shared
  // subtrees plus a compacted term dictionary. Must answer bit-identically.
  IndexBuildOptions compressed_options = build_options;
  compressed_options.enable_dag = true;
  compressed_options.enable_dict = true;
  IndexBuilder compressed_builder(tree, compressed_options);
  JDeweyIndex jindex_compressed = compressed_builder.BuildJDeweyIndex();
  TopKIndex topk_index = builder.BuildTopKIndex(jindex);
  TopKIndex topk_compressed =
      compressed_builder.BuildTopKIndex(jindex_compressed);

  // The plain disk image, served with skip-decode on and off.
  const DiskConfig kConfigs[] = {
      {true, "plain_skip"},
      {false, "plain_noskip"},
  };
  std::vector<std::shared_ptr<DiskIndexEnv>> envs;
  std::vector<std::string> config_names;
  std::vector<std::string> paths;
  for (const DiskConfig& config : kConfigs) {
    std::string path = TempPath("differential_" + std::to_string(seed) + "_" +
                                config.name);
    ASSERT_TRUE(DiskIndexWriter::Write(jindex, path).ok());
    DiskIndexOptions options;
    options.enable_skip = config.skip;
    auto env = DiskIndexEnv::Open(path, options);
    ASSERT_TRUE(env.ok()) << config.name << ": " << env.status().ToString();
    envs.push_back(*env);
    config_names.push_back(config.name);
    paths.push_back(std::move(path));
    paths.push_back(paths.back() + ".manifest");
  }

  // The compressed image: DAG sidecar and dictionary-coded length/score
  // rows — served by the same session layer.
  {
    std::string path =
        TempPath("differential_" + std::to_string(seed) + "_compressed");
    DiskIndexWriter::Options image;
    image.dag = true;
    image.dict_rows = true;
    ASSERT_TRUE(DiskIndexWriter::Write(jindex_compressed, path, image).ok());
    auto env = DiskIndexEnv::Open(path, DiskIndexOptions{});
    ASSERT_TRUE(env.ok()) << "compressed: " << env.status().ToString();
    envs.push_back(*env);
    config_names.push_back("compressed");
    paths.push_back(std::move(path));
    paths.push_back(paths.back() + ".manifest");
  }

  // Segmented configuration: the same corpus split round-robin across
  // 1 + (seed % 3) sealed disk segments plus one in-memory memtable, all
  // merged at the cursor layer into the same JoinSearch/TopKSearch
  // implementations the monolithic configurations use.
  JDeweyEncoding enc = JDeweyBuilder::Assign(tree, build_options.jdewey_gap);
  size_t sealed_parts = 1 + static_cast<size_t>(seed % 3);
  std::vector<std::vector<NodeId>> groups(sealed_parts + 1);
  for (NodeId id = 0; id < tree.node_count(); ++id) {
    groups[id % groups.size()].push_back(id);
  }
  SegmentedIndex segmented;
  segmented.SetCorpusNodes(tree.node_count());
  for (size_t i = 0; i < sealed_parts; ++i) {
    JDeweyIndex segment = BuildSegmentIndex(tree, enc, groups[i], build_options);
    std::string path = TempPath("differential_" + std::to_string(seed) +
                                "_seg" + std::to_string(i));
    ASSERT_TRUE(
        DiskIndexWriter::Write(segment, path, {}, groups[i].size()).ok());
    ASSERT_TRUE(segmented.AddDiskSegment(path).ok());
    paths.push_back(std::move(path));
    paths.push_back(paths.back() + ".manifest");
  }
  // The memtable arrives in two refreshes whose node sets interleave, so
  // the predecessor ⊕ delta merge sees rows of both on every level.
  std::vector<NodeId> first, second;
  for (size_t i = 0; i < groups.back().size(); ++i) {
    (i % 2 == 0 ? first : second).push_back(groups.back()[i]);
  }
  std::shared_ptr<const Memtable> memtable = Memtable::Extend(
      nullptr, BuildSegmentIndex(tree, enc, first, build_options),
      build_options.stats_buckets, *segmented.Pin()->state());
  memtable = Memtable::Extend(
      memtable, BuildSegmentIndex(tree, enc, second, build_options),
      build_options.stats_buckets, *segmented.Pin()->state());
  segmented.SetMemtable(memtable, tree.node_count());
  std::vector<std::vector<SearchResult>> segmented_complete;

  for (size_t qi = 0; qi < workload.size(); ++qi) {
    const WorkloadQuery& query = workload[qi];
    std::string label = "seed=" + std::to_string(seed) +
                        " query=" + std::to_string(qi) +
                        (query.semantics == Semantics::kElca ? " ELCA"
                                                             : " SLCA");

    // Oracle: the stack-based DIL baseline, cross-checked against the
    // eager Indexed-Lookup baseline (independent implementations).
    std::vector<SearchResult> want =
        StackOracle(tree, dindex, query.semantics, query.keywords);
    {
      IndexedLookupOptions options;
      options.semantics = query.semantics;
      options.compute_scores = true;
      IndexedLookupSearch search(tree, dindex, options);
      ExpectSameResults(search.Search(query.keywords), want,
                        label + " indexed-lookup");
    }

    // Join-based in memory, galloping enabled (dynamic) and disabled
    // (forced linear merges).
    for (JoinPolicy policy : {JoinPolicy::kDynamic, JoinPolicy::kForceMerge}) {
      JoinSearchOptions options;
      options.semantics = query.semantics;
      options.planner.policy = policy;
      JoinSearch search(jindex, options);
      ExpectSameResults(search.Search(query.keywords), want,
                        label + " join policy=" +
                            std::to_string(static_cast<int>(policy)));
      JoinSearch compressed_search(jindex_compressed, options);
      ExpectSameResults(compressed_search.Search(query.keywords), want,
                        label + " join compressed policy=" +
                            std::to_string(static_cast<int>(policy)));
    }

    // Disk-resident: every codec/container/skip configuration, each with
    // galloping on and off; plus top-K against the complete prefix.
    for (size_t c = 0; c < envs.size(); ++c) {
      for (JoinPolicy policy :
           {JoinPolicy::kDynamic, JoinPolicy::kForceMerge}) {
        auto session = envs[c]->NewSession();
        JoinSearchOptions options;
        options.semantics = query.semantics;
        options.planner.policy = policy;
        auto got = session->SearchComplete(query.keywords, options);
        ASSERT_TRUE(got.ok()) << label << " " << config_names[c] << ": "
                              << got.status().ToString();
        ExpectSameResults(*got, want,
                          label + " disk " + config_names[c] + " policy=" +
                              std::to_string(static_cast<int>(policy)));
      }
    }

    // Segmented: sealed disk segments + memtable, same answers.
    {
      JoinSearchOptions options;
      options.semantics = query.semantics;
      SegmentSetReader reader(segmented.Pin());
      JoinSearch search(&reader, options);
      auto got = search.Search(query.keywords);
      ExpectSameResults(got, want, label + " segmented");
      segmented_complete.push_back(got);
    }

    // Top-K under both semantics on every backend: the default budgeted
    // strategy (star join or complete fallback, whichever the budget picks)
    // must rank like the complete result; the in-memory indexes also run
    // the unbounded star join.
    for (Semantics semantics : {Semantics::kElca, Semantics::kSlca}) {
      const std::vector<SearchResult> oracle =
          semantics == query.semantics
              ? want
              : StackOracle(tree, dindex, semantics, query.keywords);
      const std::string topk_label =
          label +
          (semantics == Semantics::kElca ? " topk ELCA " : " topk SLCA ");
      TopKSearchOptions options;
      options.semantics = semantics;
      options.k = query.k;
      for (size_t c = 0; c < envs.size(); ++c) {
        auto got = envs[c]->NewSession()->SearchTopK(query.keywords, options);
        ASSERT_TRUE(got.ok()) << topk_label << config_names[c] << ": "
                              << got.status().ToString();
        ExpectTopKMatchesComplete(*got, oracle, query.k,
                                  topk_label + config_names[c]);
      }
      SegmentSetReader reader(segmented.Pin());
      TopKSearch segmented_topk(&reader, options);
      ExpectTopKMatchesComplete(segmented_topk.Search(query.keywords), oracle,
                                query.k, topk_label + "segmented");
      for (bool fallback : {true, false}) {
        options.fallback_to_complete = fallback;
        TopKSearch memory(topk_index, options);
        ExpectTopKMatchesComplete(memory.Search(query.keywords), oracle,
                                  query.k,
                                  topk_label + "memory fallback=" +
                                      std::to_string(fallback));
        TopKSearch compressed(topk_compressed, options);
        ExpectTopKMatchesComplete(compressed.Search(query.keywords), oracle,
                                  query.k,
                                  topk_label + "compressed fallback=" +
                                      std::to_string(fallback));
      }
    }
  }

  // Compaction folds every sealed segment into one disk segment; the
  // memtable keeps riding on top. Results must be bit-identical to the
  // pre-compaction merge, not merely close.
  {
    std::string compacted =
        TempPath("differential_" + std::to_string(seed) + "_compacted");
    ASSERT_TRUE(segmented.Compact(compacted).ok());
    paths.push_back(compacted);
    paths.push_back(compacted + ".manifest");
    EXPECT_EQ(segmented.sealed_count(), 1u);
    for (size_t qi = 0; qi < workload.size(); ++qi) {
      const WorkloadQuery& query = workload[qi];
      JoinSearchOptions options;
      options.semantics = query.semantics;
      SegmentSetReader reader(segmented.Pin());
      JoinSearch search(&reader, options);
      std::vector<SearchResult> got = search.Search(query.keywords);
      std::vector<SearchResult> want_exact = segmented_complete[qi];
      SortByNode(&got);
      SortByNode(&want_exact);
      ASSERT_EQ(got.size(), want_exact.size()) << "post-compact q" << qi;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].node, want_exact[i].node) << "post-compact q" << qi;
        EXPECT_EQ(got[i].score, want_exact[i].score)
            << "post-compact q" << qi << " node " << got[i].node;
      }
    }
  }

  envs.clear();
  for (const std::string& path : paths) std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(SeededCorpora, DifferentialTest,
                         ::testing::Range<uint64_t>(1, 56),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// High-repetition family: trees built from repeated identical subtrees —
// the corpus shape the DAG/dictionary compression exists for, so shared
// classes are plentiful and every query path exercises dedup expansion.
class HighRepetitionDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HighRepetitionDifferentialTest, CompressedEnginesMatchOracle) {
  const uint64_t seed = GetParam();
  CorpusSpec spec = testing::MakeHighRepetitionSpec(seed);
  XmlTree tree = MakeCorpusTree(spec);
  std::vector<WorkloadQuery> workload = MakeRandomWorkload(spec, 6);

  IndexBuildOptions build_options;
  build_options.index_tag_names = false;
  IndexBuilder builder(tree, build_options);
  JDeweyIndex jindex = builder.BuildJDeweyIndex();
  DeweyIndex dindex = builder.BuildDeweyIndex();

  IndexBuildOptions compressed_options = build_options;
  compressed_options.enable_dag = true;
  compressed_options.enable_dict = true;
  IndexBuilder compressed_builder(tree, compressed_options);
  JDeweyIndex jindex_compressed = compressed_builder.BuildJDeweyIndex();
  TopKIndex topk_index = builder.BuildTopKIndex(jindex);
  TopKIndex topk_compressed =
      compressed_builder.BuildTopKIndex(jindex_compressed);
  // This family must actually trigger the DAG: at least one shared class.
  size_t dag_lists = 0;
  for (const std::string& term : spec.terms) {
    const JDeweyList* list = jindex_compressed.GetList(term);
    if (list != nullptr && list->dag != nullptr) ++dag_lists;
  }
  EXPECT_GT(dag_lists, 0u) << "seed=" << seed
                           << ": high-repetition corpus built no DAG";

  // The compressed image over the compressed build.
  std::string image_path =
      TempPath("differential_hirep_" + std::to_string(seed) + "_compressed");
  DiskIndexWriter::Options image;
  image.dag = true;
  image.dict_rows = true;
  ASSERT_TRUE(
      DiskIndexWriter::Write(jindex_compressed, image_path, image).ok());
  auto env = DiskIndexEnv::Open(image_path, DiskIndexOptions{});
  ASSERT_TRUE(env.ok()) << env.status().ToString();

  for (size_t qi = 0; qi < workload.size(); ++qi) {
    const WorkloadQuery& query = workload[qi];
    std::string label = "hirep seed=" + std::to_string(seed) +
                        " query=" + std::to_string(qi) +
                        (query.semantics == Semantics::kElca ? " ELCA"
                                                             : " SLCA");

    std::vector<SearchResult> want =
        StackOracle(tree, dindex, query.semantics, query.keywords);
    {
      IndexedLookupOptions options;
      options.semantics = query.semantics;
      options.compute_scores = true;
      IndexedLookupSearch search(tree, dindex, options);
      ExpectSameResults(search.Search(query.keywords), want,
                        label + " indexed-lookup");
    }

    for (JoinPolicy policy : {JoinPolicy::kDynamic, JoinPolicy::kForceMerge}) {
      JoinSearchOptions options;
      options.semantics = query.semantics;
      options.planner.policy = policy;
      JoinSearch plain(jindex, options);
      ExpectSameResults(plain.Search(query.keywords), want, label + " plain");
      JoinSearch compressed(jindex_compressed, options);
      ExpectSameResults(compressed.Search(query.keywords), want,
                        label + " compressed policy=" +
                            std::to_string(static_cast<int>(policy)));

      auto session = (*env)->NewSession();
      auto got = session->SearchComplete(query.keywords, options);
      ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
      ExpectSameResults(*got, want,
                        label + " disk compressed policy=" +
                            std::to_string(static_cast<int>(policy)));
    }
    for (Semantics semantics : {Semantics::kElca, Semantics::kSlca}) {
      const std::vector<SearchResult> oracle =
          semantics == query.semantics
              ? want
              : StackOracle(tree, dindex, semantics, query.keywords);
      const std::string topk_label =
          label +
          (semantics == Semantics::kElca ? " topk ELCA " : " topk SLCA ");
      TopKSearchOptions options;
      options.semantics = semantics;
      options.k = query.k;
      auto got = (*env)->NewSession()->SearchTopK(query.keywords, options);
      ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
      ExpectTopKMatchesComplete(*got, oracle, query.k,
                                topk_label + "disk compressed");
      for (bool fallback : {true, false}) {
        options.fallback_to_complete = fallback;
        TopKSearch memory(topk_index, options);
        ExpectTopKMatchesComplete(memory.Search(query.keywords), oracle,
                                  query.k,
                                  topk_label + "memory fallback=" +
                                      std::to_string(fallback));
        TopKSearch compressed(topk_compressed, options);
        ExpectTopKMatchesComplete(compressed.Search(query.keywords), oracle,
                                  query.k,
                                  topk_label + "compressed fallback=" +
                                      std::to_string(fallback));
      }
    }
  }

  (*env).reset();
  std::remove(image_path.c_str());
  std::remove((image_path + ".manifest").c_str());
}

INSTANTIATE_TEST_SUITE_P(HighRepetitionCorpora, HighRepetitionDifferentialTest,
                         ::testing::Range<uint64_t>(1, 21),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace xtopk
