// Correctness suite of the structure-aware compression layer (DESIGN.md
// §15): subtree-DAG detection + verification at build time, the exact
// dedup-column round trip, bit-identical query results with the DAG and
// dictionary on vs off, the force-off environment knobs, and the disk
// image's compression flags (kDict row streams, deduplicated column blobs
// expanded through the checked expander at load).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "core/join_search.h"
#include "core/topk_search.h"
#include "index/dag.h"
#include "index/disk_index.h"
#include "index/index_builder.h"
#include "index/reader.h"
#include "index/segment_builder.h"
#include "storage/segment_manifest.h"
#include "testing/corpus.h"

namespace xtopk {
namespace {

using testing::MakeRepeatedSubtreeTree;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

const std::vector<std::string> kTerms = {"alpha", "beta", "gamma"};

XmlTree RepeatedTree(uint64_t seed = 3) {
  return MakeRepeatedSubtreeTree(seed, /*groups=*/3, /*copies_per_group=*/8,
                                 kTerms);
}

IndexBuildOptions BaseOptions() {
  IndexBuildOptions options;
  options.index_tag_names = false;
  return options;
}

bool ColumnsEqual(const Column& a, const Column& b) {
  if (a.run_count() != b.run_count()) return false;
  for (size_t i = 0; i < a.run_count(); ++i) {
    const Run& ra = a.runs()[i];
    const Run& rb = b.runs()[i];
    if (ra.value != rb.value || ra.first_row != rb.first_row ||
        ra.count != rb.count) {
      return false;
    }
  }
  return true;
}

void ExpectListsIdentical(const JDeweyList& a, const JDeweyList& b,
                          const std::string& label) {
  ASSERT_EQ(a.lengths, b.lengths) << label;
  ASSERT_EQ(a.scores, b.scores) << label;
  ASSERT_EQ(a.max_length, b.max_length) << label;
  ASSERT_EQ(a.columns.size(), b.columns.size()) << label;
  for (size_t l = 0; l < a.columns.size(); ++l) {
    EXPECT_TRUE(ColumnsEqual(a.columns[l], b.columns[l]))
        << label << " level " << (l + 1);
  }
}

void ExpectSameResults(const std::vector<SearchResult>& got_in,
                       const std::vector<SearchResult>& want_in,
                       const std::string& label) {
  std::vector<SearchResult> got = got_in, want = want_in;
  SortByNode(&got);
  SortByNode(&want);
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].node, want[i].node) << label << " rank " << i;
    EXPECT_EQ(got[i].score, want[i].score)
        << label << " node " << got[i].node;
  }
}

/// The builder must attach verified DAG data on a repeated corpus, and the
/// dedup columns must (a) be strictly smaller than the full ones somewhere
/// and (b) expand back to the bit-identical full column at every level.
TEST(DagCompressionTest, BuilderAttachesExactlyInvertibleDagData) {
  XmlTree tree = RepeatedTree();
  IndexBuildOptions options = BaseOptions();
  options.enable_dag = true;
  IndexBuilder builder(tree, options);
  JDeweyIndex index = builder.BuildJDeweyIndex();

  size_t dag_lists = 0, dedup_levels = 0, runs_saved = 0;
  for (size_t t = 0; t < index.terms().size(); ++t) {
    const JDeweyList& list = index.lists()[t];
    if (list.dag == nullptr) continue;
    ++dag_lists;
    ASSERT_NE(list.dag->catalog, nullptr);
    ASSERT_FALSE(list.dag->catalog->empty());
    for (uint32_t l = 1; l <= list.max_length; ++l) {
      if (l - 1 >= list.dag->has_dedup.size() || !list.dag->has_dedup[l - 1]) {
        continue;
      }
      ++dedup_levels;
      const Column& dedup = list.dag->dedup[l - 1];
      const Column& full = list.columns[l - 1];
      ASSERT_LE(dedup.run_count(), full.run_count());
      runs_saved += full.run_count() - dedup.run_count();
      Column expanded =
          ExpandDedupColumn(dedup, *list.dag->catalog, list.dag->row_deltas, l);
      EXPECT_TRUE(ColumnsEqual(expanded, full))
          << index.terms()[t] << " level " << l;
      // The checked (untrusted-input) expander must agree on valid data.
      auto checked = ExpandDedupColumnChecked(dedup, *list.dag->catalog,
                                              list.dag->row_deltas, l);
      ASSERT_TRUE(checked.ok()) << checked.status().ToString();
      EXPECT_TRUE(ColumnsEqual(*checked, full));
    }
  }
  EXPECT_GT(dag_lists, 0u) << "repeated corpus produced no shared subtrees";
  EXPECT_GT(dedup_levels, 0u);
  EXPECT_GT(runs_saved, 0u) << "dedup columns saved no runs";
}

/// DAG + dictionary on vs off: every query result — both semantics, both
/// join policies, ranked and unranked — must be bit-identical.
TEST(DagCompressionTest, QueriesBitIdenticalWithCompressionOnAndOff) {
  XmlTree tree = RepeatedTree();
  IndexBuilder plain_builder(tree, BaseOptions());
  JDeweyIndex plain = plain_builder.BuildJDeweyIndex();

  IndexBuildOptions compressed_options = BaseOptions();
  compressed_options.enable_dag = true;
  compressed_options.enable_dict = true;
  IndexBuilder compressed_builder(tree, compressed_options);
  JDeweyIndex compressed = compressed_builder.BuildJDeweyIndex();
  EXPECT_TRUE(compressed.dictionary_compacted());

  const std::vector<std::vector<std::string>> queries = {
      {"alpha"}, {"beta"}, {"alpha", "beta"}, {"alpha", "beta", "gamma"}};
  for (const auto& keywords : queries) {
    for (Semantics semantics : {Semantics::kElca, Semantics::kSlca}) {
      for (JoinPolicy policy :
           {JoinPolicy::kDynamic, JoinPolicy::kForceMerge}) {
        JoinSearchOptions options;
        options.semantics = semantics;
        options.planner.policy = policy;
        JoinSearch want(plain, options);
        JoinSearch got(compressed, options);
        ExpectSameResults(got.Search(keywords), want.Search(keywords),
                          "join sem=" +
                              std::to_string(static_cast<int>(semantics)));
      }
      TopKSearchOptions topk;
      topk.semantics = semantics;
      topk.k = 5;
      MemoryTermSource plain_source(plain);
      MemoryTermSource compressed_source(compressed);
      TopKSearch want(&plain_source, topk);
      TopKSearch got(&compressed_source, topk);
      auto want_results = want.Search(keywords);
      auto got_results = got.Search(keywords);
      ASSERT_EQ(got_results.size(), want_results.size());
      for (size_t i = 0; i < got_results.size(); ++i) {
        EXPECT_EQ(got_results[i].score, want_results[i].score) << "rank " << i;
      }
    }
  }
}

/// The compacted dictionary serves the exact same directory surface.
TEST(DagCompressionTest, CompactedDictionaryServesSameDirectory) {
  XmlTree tree = RepeatedTree();
  IndexBuilder plain_builder(tree, BaseOptions());
  JDeweyIndex plain = plain_builder.BuildJDeweyIndex();

  IndexBuildOptions options = BaseOptions();
  options.enable_dict = true;
  IndexBuilder dict_builder(tree, options);
  JDeweyIndex dict = dict_builder.BuildJDeweyIndex();
  ASSERT_TRUE(dict.dictionary_compacted());
  EXPECT_GT(dict.term_dictionary().size(), 0u);

  for (const std::string& term : kTerms) {
    EXPECT_EQ(dict.Frequency(term), plain.Frequency(term)) << term;
    const JDeweyList* a = dict.GetList(term);
    const JDeweyList* b = plain.GetList(term);
    ASSERT_NE(a, nullptr) << term;
    ASSERT_NE(b, nullptr) << term;
    ExpectListsIdentical(*a, *b, term);
    const TermStats* sa = dict.StatsOf(term);
    const TermStats* sb = plain.StatsOf(term);
    ASSERT_EQ(sa != nullptr, sb != nullptr) << term;
    if (sa != nullptr) EXPECT_EQ(sa->rows, sb->rows) << term;
  }
  EXPECT_EQ(dict.Frequency("absent"), 0u);
  EXPECT_EQ(dict.GetList("absent"), nullptr);
}

/// XTOPK_DISABLE_DAG / XTOPK_DISABLE_DICT force the features off even when
/// the build options enable them.
TEST(DagCompressionTest, EnvKnobsForceCompressionOff) {
  XmlTree tree = RepeatedTree();
  IndexBuildOptions options = BaseOptions();
  options.enable_dag = true;
  options.enable_dict = true;

  ::setenv("XTOPK_DISABLE_DAG", "1", 1);
  ::setenv("XTOPK_DISABLE_DICT", "1", 1);
  IndexBuilder off_builder(tree, options);
  JDeweyIndex off = off_builder.BuildJDeweyIndex();
  ::unsetenv("XTOPK_DISABLE_DAG");
  ::unsetenv("XTOPK_DISABLE_DICT");

  EXPECT_FALSE(off.dictionary_compacted());
  for (const JDeweyList& list : off.lists()) {
    EXPECT_EQ(list.dag, nullptr);
  }
  // "0" means enabled.
  ::setenv("XTOPK_DISABLE_DAG", "0", 1);
  IndexBuilder on_builder(tree, options);
  JDeweyIndex on = on_builder.BuildJDeweyIndex();
  ::unsetenv("XTOPK_DISABLE_DAG");
  size_t dag_lists = 0;
  for (const JDeweyList& list : on.lists()) dag_lists += list.dag != nullptr;
  EXPECT_GT(dag_lists, 0u);
}

/// The compressed image — kDict row streams + DAG column blobs — must load
/// back to lists bit-identical to the in-memory build, serve the same
/// directory surface, and answer queries exactly like the plain image of
/// the same index.
TEST(DagCompressionTest, DiskV3RoundTripsBitIdentical) {
  XmlTree tree = RepeatedTree();
  IndexBuildOptions build_options = BaseOptions();
  build_options.enable_dag = true;
  IndexBuilder builder(tree, build_options);
  JDeweyIndex index = builder.BuildJDeweyIndex();

  std::string plain_path = TempPath("dag_roundtrip_plain");
  std::string comp_path = TempPath("dag_roundtrip_compressed");
  ASSERT_TRUE(DiskIndexWriter::Write(index, plain_path).ok());
  DiskIndexWriter::Options write_options;
  write_options.dag = true;
  write_options.dict_rows = true;
  ASSERT_TRUE(DiskIndexWriter::Write(index, comp_path, write_options).ok());

  auto plain_env = DiskIndexEnv::Open(plain_path);
  ASSERT_TRUE(plain_env.ok()) << plain_env.status().ToString();
  auto comp_env = DiskIndexEnv::Open(comp_path);
  ASSERT_TRUE(comp_env.ok()) << comp_env.status().ToString();
  EXPECT_EQ((*comp_env)->term_count(), index.term_count());

  // Directory surface + full list materialization against the in-memory
  // truth, term by term.
  auto session = (*comp_env)->NewSession();
  for (size_t t = 0; t < index.terms().size(); ++t) {
    const std::string& term = index.terms()[t];
    const JDeweyList& want = index.lists()[t];
    EXPECT_EQ((*comp_env)->Frequency(term), want.num_rows()) << term;
    EXPECT_EQ((*comp_env)->MaxLength(term), want.max_length) << term;
    auto got = session->LoadList(term, want.max_length, /*need_scores=*/true);
    ASSERT_TRUE(got.ok()) << term << ": " << got.status().ToString();
    ASSERT_NE(*got, nullptr) << term;
    ExpectListsIdentical(**got, want, term);
    if (want.dag != nullptr) {
      // The session list re-grew its DAG companion from the sidecar, so
      // the shared-subtree join path engages on the disk path too.
      ASSERT_NE((*got)->dag, nullptr) << term;
      for (uint32_t l = 1; l <= want.max_length; ++l) {
        bool want_dedup = l - 1 < want.dag->has_dedup.size() &&
                          want.dag->has_dedup[l - 1] != 0;
        bool got_dedup = l - 1 < (*got)->dag->has_dedup.size() &&
                         (*got)->dag->has_dedup[l - 1] != 0;
        ASSERT_EQ(got_dedup, want_dedup) << term << " level " << l;
        if (want_dedup) {
          EXPECT_TRUE(ColumnsEqual((*got)->dag->dedup[l - 1],
                                   want.dag->dedup[l - 1]))
              << term << " level " << l;
        }
      }
    }
  }
  EXPECT_EQ((*comp_env)->Frequency("absent"), 0u);

  // Query equivalence against the plain image.
  const std::vector<std::vector<std::string>> queries = {
      {"alpha", "beta"}, {"alpha", "beta", "gamma"}, {"gamma"}};
  for (const auto& keywords : queries) {
    for (Semantics semantics : {Semantics::kElca, Semantics::kSlca}) {
      JoinSearchOptions options;
      options.semantics = semantics;
      auto plain_session = (*plain_env)->NewSession();
      auto comp_session = (*comp_env)->NewSession();
      auto want = plain_session->SearchComplete(keywords, options);
      auto got = comp_session->SearchComplete(keywords, options);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectSameResults(*got, *want, "disk comp vs plain");

      TopKSearchOptions topk;
      topk.semantics = semantics;
      topk.k = 4;
      auto want_topk = (*plain_env)->NewSession()->SearchTopK(keywords, topk);
      auto got_topk = (*comp_env)->NewSession()->SearchTopK(keywords, topk);
      ASSERT_TRUE(want_topk.ok()) << want_topk.status().ToString();
      ASSERT_TRUE(got_topk.ok()) << got_topk.status().ToString();
      ASSERT_EQ(got_topk->size(), want_topk->size());
      for (size_t i = 0; i < got_topk->size(); ++i) {
        EXPECT_EQ((*got_topk)[i].score, (*want_topk)[i].score) << "rank " << i;
      }
    }
  }

  std::remove(plain_path.c_str());
  std::remove((plain_path + ".manifest").c_str());
  std::remove(comp_path.c_str());
  std::remove((comp_path + ".manifest").c_str());
}

/// The compressed image is no larger than the plain one on a repeated
/// corpus.
TEST(DagCompressionTest, CompressedContainerIsSmallerOnRepeatedCorpus) {
  XmlTree tree = MakeRepeatedSubtreeTree(5, /*groups=*/3,
                                         /*copies_per_group=*/16, kTerms);
  IndexBuildOptions build_options = BaseOptions();
  build_options.enable_dag = true;
  IndexBuilder builder(tree, build_options);
  JDeweyIndex index = builder.BuildJDeweyIndex();

  auto file_size = [](const std::string& path) -> long {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return -1;
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    std::fclose(f);
    return size;
  };

  std::string plain_path = TempPath("dag_size_plain");
  std::string comp_path = TempPath("dag_size_compressed");
  ASSERT_TRUE(DiskIndexWriter::Write(index, plain_path).ok());
  DiskIndexWriter::Options write_options;
  write_options.dag = true;
  write_options.dict_rows = true;
  ASSERT_TRUE(DiskIndexWriter::Write(index, comp_path, write_options).ok());

  long plain = file_size(plain_path), comp = file_size(comp_path);
  ASSERT_GT(plain, 0);
  ASSERT_GT(comp, 0);
  // Page granularity makes small corpora coarse; "no larger" is the
  // invariant here, the >= 30% bar lives in the perf-smoke bench on a
  // corpus big enough to see past page rounding.
  EXPECT_LE(comp, plain);

  std::remove(plain_path.c_str());
  std::remove((plain_path + ".manifest").c_str());
  std::remove(comp_path.c_str());
  std::remove((comp_path + ".manifest").c_str());
}

/// Manifests (front-coded term section) round-trip every field.
TEST(DagCompressionTest, ManifestV3RoundTrip) {
  XmlTree tree = RepeatedTree();
  IndexBuilder builder(tree, BaseOptions());
  JDeweyIndex index = builder.BuildJDeweyIndex();
  SegmentManifest manifest = ManifestFromSegment(index);
  manifest.covered_nodes = tree.node_count();

  std::string path = TempPath("manifest_v3");
  ASSERT_TRUE(manifest.Save(path).ok());
  auto loaded = SegmentManifest::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->covered_nodes, manifest.covered_nodes);
  ASSERT_EQ(loaded->terms.size(), manifest.terms.size());
  for (size_t i = 0; i < loaded->terms.size(); ++i) {
    EXPECT_EQ(loaded->terms[i].term, manifest.terms[i].term);
    EXPECT_EQ(loaded->terms[i].rows, manifest.terms[i].rows);
    EXPECT_EQ(loaded->terms[i].max_tf, manifest.terms[i].max_tf);
    EXPECT_EQ(loaded->terms[i].levels.size(),
              manifest.terms[i].levels.size());
  }

  // Truncation must always be rejected (the CRC trailer covers the body).
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string bytes;
  char chunk[4096];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) bytes.append(chunk, n);
  std::fclose(f);
  std::string cut_path = TempPath("manifest_v3_cut");
  for (size_t cut : {bytes.size() - 1, bytes.size() / 2, size_t{9}}) {
    std::FILE* out = std::fopen(cut_path.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    std::fwrite(bytes.data(), 1, cut, out);
    std::fclose(out);
    EXPECT_FALSE(SegmentManifest::Load(cut_path).ok()) << "cut=" << cut;
  }

  std::remove(path.c_str());
  std::remove(cut_path.c_str());
}

}  // namespace
}  // namespace xtopk
