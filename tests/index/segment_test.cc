#include "index/segment.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/join_search.h"
#include "index/index_builder.h"
#include "index/segment_builder.h"
#include "index/segment_view.h"
#include "obs/metrics.h"
#include "storage/segment_manifest.h"
#include "testing/corpus.h"
#include "util/rng.h"
#include "xml/jdewey_builder.h"
#include "xml/xml_parser.h"

namespace xtopk {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

constexpr char kXml[] =
    "<db>"
    "  <conf><paper><title>xml keyword search</title>"
    "    <author>ann</author></paper>"
    "  <paper><title>top k ranking for xml</title>"
    "    <author>bo</author></paper></conf>"
    "  <journal><article><title>xml databases</title>"
    "    <note>keyword ranking</note></article></journal>"
    "</db>";

/// Splits the tree's nodes round-robin into `parts` disjoint groups.
std::vector<std::vector<NodeId>> Partition(const XmlTree& tree, size_t parts) {
  std::vector<std::vector<NodeId>> groups(parts);
  for (NodeId id = 0; id < tree.node_count(); ++id) {
    groups[id % parts].push_back(id);
  }
  return groups;
}

void ExpectListsEqual(const JDeweyList& got, const JDeweyList& want,
                      const std::string& term) {
  ASSERT_EQ(got.num_rows(), want.num_rows()) << term;
  EXPECT_EQ(got.lengths, want.lengths) << term;
  EXPECT_EQ(got.max_length, want.max_length) << term;
  for (uint32_t r = 0; r < want.num_rows(); ++r) {
    EXPECT_EQ(got.scores[r], want.scores[r]) << term << " row " << r;
  }
  ASSERT_EQ(got.columns.size(), want.columns.size()) << term;
  for (size_t l = 0; l < want.columns.size(); ++l) {
    EXPECT_EQ(got.columns[l].runs(), want.columns[l].runs())
        << term << " level " << (l + 1);
  }
}

TEST(SegmentedIndexTest, MergedListsMatchMonolithicBuild) {
  XmlTree tree = ParseXmlStringOrDie(kXml);
  IndexBuildOptions options;
  JDeweyEncoding enc = JDeweyBuilder::Assign(tree, options.jdewey_gap);

  IndexBuilder builder(tree, options);
  const JDeweyIndex& monolithic = builder.jdewey_index();

  // One part: the in-memory index is exactly a one-segment resolve.
  for (size_t parts : {1u, 3u}) {
    SegmentedIndex segmented;
    segmented.SetCorpusNodes(tree.node_count());
    for (const auto& group : Partition(tree, parts)) {
      segmented.AddMemorySegment(BuildSegmentIndex(tree, enc, group, options),
                                 group.size());
    }
    EXPECT_EQ(segmented.sealed_count(), parts);

    SegmentSetReader reader(segmented.Pin());
    for (const TermInfo& info : builder.terms()) {
      EXPECT_EQ(reader.Frequency(info.term), info.frequency);
      const JDeweyList* want = monolithic.GetList(info.term);
      ASSERT_NE(want, nullptr);
      auto got = reader.Resolve(info.term, UINT32_MAX, true, nullptr);
      ASSERT_TRUE(got.ok());
      ASSERT_NE(*got, nullptr);
      ExpectListsEqual(**got, *want, info.term);
      // Merged lists carry no NodeIds; every row maps to its node through
      // the reader's (level, value) lookup, as query results do.
      EXPECT_TRUE((*got)->nodes.empty()) << info.term;
      for (uint32_t r = 0; r < want->num_rows(); ++r) {
        uint32_t level = (*got)->lengths[r];
        EXPECT_EQ(reader.NodeAt(level, (*got)->Component(r, level)),
                  want->nodes[r])
            << info.term;
      }
    }
    EXPECT_EQ(reader.max_level(), monolithic.max_level());
    auto missing = reader.Resolve("zebra", UINT32_MAX, true, nullptr);
    ASSERT_TRUE(missing.ok());
    EXPECT_EQ(*missing, nullptr);
  }
}

TEST(SegmentedIndexTest, MemtableParticipatesInMergeAndFrequencies) {
  XmlTree tree = ParseXmlStringOrDie(kXml);
  IndexBuildOptions options;
  JDeweyEncoding enc = JDeweyBuilder::Assign(tree, options.jdewey_gap);

  IndexBuilder builder(tree, options);
  JDeweyIndex monolithic = builder.BuildJDeweyIndex();

  // Last partition plays the memtable; the others are sealed.
  auto groups = Partition(tree, 3);
  SegmentedIndex segmented;
  segmented.SetCorpusNodes(tree.node_count());
  segmented.AddMemorySegment(BuildSegmentIndex(tree, enc, groups[0], options),
                             groups[0].size());
  segmented.AddMemorySegment(BuildSegmentIndex(tree, enc, groups[1], options),
                             groups[1].size());
  JDeweyIndex memtable = BuildSegmentIndex(tree, enc, groups[2], options);
  segmented.SetMemtable(
      Memtable::Extend(nullptr, std::move(memtable), options.stats_buckets,
                       *segmented.Pin()->state()),
      tree.node_count());

  SegmentSetReader reader(segmented.Pin());
  for (const TermInfo& info : builder.terms()) {
    EXPECT_EQ(reader.Frequency(info.term), info.frequency);
    auto got = reader.Resolve(info.term, UINT32_MAX, true, nullptr);
    ASSERT_TRUE(got.ok());
    ExpectListsEqual(**got, *monolithic.GetList(info.term), info.term);
  }

  // The cursor-layer merge feeds the one JoinSearch implementation.
  JoinSearchOptions join_options;
  join_options.compute_scores = true;
  JoinSearch over_segments(&reader, join_options);
  JoinSearch over_monolithic(monolithic, join_options);
  for (const auto& query : std::vector<std::vector<std::string>>{
           {"xml", "keyword"}, {"title", "ranking"}, {"xml", "ann"}}) {
    auto got = over_segments.Search(query);
    auto want = over_monolithic.Search(query);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].node, want[i].node);
      EXPECT_EQ(got[i].level, want[i].level);
      EXPECT_DOUBLE_EQ(got[i].score, want[i].score);
    }
  }
}

TEST(SegmentedIndexTest, DiskSegmentsAndCompactionPreserveLists) {
  XmlTree tree = ParseXmlStringOrDie(kXml);
  IndexBuildOptions options;
  JDeweyEncoding enc = JDeweyBuilder::Assign(tree, options.jdewey_gap);
  IndexBuilder builder(tree, options);
  JDeweyIndex monolithic = builder.BuildJDeweyIndex();

  auto groups = Partition(tree, 2);
  std::vector<std::string> paths = {TempPath("segtest_a.seg"),
                                    TempPath("segtest_b.seg")};
  SegmentedIndex segmented;
  segmented.SetCorpusNodes(tree.node_count());
  for (size_t i = 0; i < groups.size(); ++i) {
    JDeweyIndex segment = BuildSegmentIndex(tree, enc, groups[i], options);
    ASSERT_TRUE(
        DiskIndexWriter::Write(segment, paths[i], {}, groups[i].size()).ok());
    ASSERT_TRUE(segmented.AddDiskSegment(paths[i]).ok());
  }
  EXPECT_EQ(obs::MetricsRegistry::Global().GetGauge("index.segments").value(),
            2);

  SegmentSetReader before(segmented.Pin());
  for (const TermInfo& info : builder.terms()) {
    auto got = before.Resolve(info.term, UINT32_MAX, true, nullptr);
    ASSERT_TRUE(got.ok());
    ExpectListsEqual(**got, *monolithic.GetList(info.term), info.term);
  }

  std::string compacted = TempPath("segtest_compacted.seg");
  uint64_t compactions_before =
      obs::MetricsRegistry::Global().GetCounter("index.compactions").value();
  ASSERT_TRUE(segmented.Compact(compacted).ok());
  EXPECT_EQ(segmented.sealed_count(), 1u);
  EXPECT_EQ(
      obs::MetricsRegistry::Global().GetCounter("index.compactions").value(),
      compactions_before + 1);

  SegmentSetReader after(segmented.Pin());
  for (const TermInfo& info : builder.terms()) {
    EXPECT_EQ(after.Frequency(info.term), info.frequency);
    auto got = after.Resolve(info.term, UINT32_MAX, true, nullptr);
    ASSERT_TRUE(got.ok());
    ExpectListsEqual(**got, *monolithic.GetList(info.term), info.term);
  }

  for (const std::string& p : paths) {
    std::remove(p.c_str());
    std::remove((p + ".manifest").c_str());
  }
  std::remove(compacted.c_str());
  std::remove((compacted + ".manifest").c_str());
}

TEST(SegmentManifestTest, RoundTripAndCorruptionDetection) {
  SegmentManifest manifest;
  manifest.covered_nodes = 42;
  for (auto [term, rows, max_tf] :
       {std::tuple<const char*, uint32_t, uint32_t>{"alpha", 3, 2},
        {"beta", 7, 5},
        {"xml", 100, 9}}) {
    SegmentTermStats t;
    t.term = term;
    t.rows = rows;
    t.max_tf = max_tf;
    manifest.terms.push_back(std::move(t));
  }
  std::string path = TempPath("manifest_roundtrip");
  ASSERT_TRUE(manifest.Save(path).ok());

  auto loaded = SegmentManifest::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->covered_nodes, 42u);
  ASSERT_EQ(loaded->terms.size(), 3u);
  EXPECT_EQ(loaded->terms[1].term, "beta");
  EXPECT_EQ(loaded->terms[1].rows, 7u);
  EXPECT_EQ(loaded->terms[1].max_tf, 5u);

  // Flip one byte in the middle: the checksum must catch it.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(12);
    char c;
    f.seekg(12);
    f.get(c);
    f.seekp(12);
    f.put(static_cast<char>(c ^ 0x40));
  }
  auto damaged = SegmentManifest::Load(path);
  EXPECT_FALSE(damaged.ok());
  EXPECT_EQ(damaged.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(SegmentManifestTest, TermsAreSortedAndFoundByTerm) {
  // SealedSegment::FindTerm binary-searches the manifest, so every
  // manifest ManifestFromSegment derives must be strictly sorted by term
  // (the segment's own term order is insertion order).
  XmlTree tree = ParseXmlStringOrDie(kXml);
  IndexBuildOptions options;
  JDeweyEncoding enc = JDeweyBuilder::Assign(tree, options.jdewey_gap);
  for (const auto& group : Partition(tree, 2)) {
    JDeweyIndex segment = BuildSegmentIndex(tree, enc, group, options);
    SegmentManifest manifest = ManifestFromSegment(segment);
    ASSERT_EQ(manifest.terms.size(), segment.term_count());
    for (size_t i = 1; i < manifest.terms.size(); ++i) {
      EXPECT_LT(manifest.terms[i - 1].term, manifest.terms[i].term) << i;
    }

    std::vector<std::string> terms = segment.terms();
    auto sealed = SealedSegment::FromMemory(std::move(segment), group.size());
    for (const std::string& term : terms) {
      const SegmentTermStats* found = sealed->FindTerm(term);
      ASSERT_NE(found, nullptr) << term;
      EXPECT_EQ(found->term, term);
      EXPECT_EQ(found->rows, sealed->memory()->Frequency(term)) << term;
    }
    EXPECT_EQ(sealed->FindTerm("no-such-term"), nullptr);
    EXPECT_EQ(sealed->FindTerm(""), nullptr);
  }
}

/// FNV-1a over the bytes of the file at `path`.
uint64_t FileDigest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  uint64_t hash = 0xcbf29ce484222325ull;
  for (std::istreambuf_iterator<char> it(in), end; it != end; ++it) {
    hash = (hash ^ static_cast<unsigned char>(*it)) * 0x100000001b3ull;
  }
  return hash;
}

TEST(SegmentManifestTest, SealedImageBytesArePinned) {
  // The image and manifest DiskIndexWriter writes for a BuildSegmentIndex
  // segment, pinned by digest: a faster build must not move a byte. Each
  // corpus grows after its initial Assign through InsertAssign, so part of
  // its numbering is maintained (reserved gaps, partial re-encodes) and
  // creation order differs from sequence order; each is sealed once as a
  // contiguous id range and once round-robin.
  struct Case {
    uint64_t seed;
    uint64_t image_digest[2];
    uint64_t manifest_digest[2];
  };
  const Case cases[] = {
      {3,
       {0x2d04bca492e6d1dfull, 0xb144d1fbe5f36da2ull},
       {0x05478597911b5159ull, 0x51032f5eaee6dd81ull}},
      {17,
       {0x2d8d77b108d30f9dull, 0x27cf90ee0037cb93ull},
       {0x4f39f829395c7c5eull, 0x3baa864e87935cf0ull}},
      {42,
       {0x261abec5749a9dbcull, 0x56e831f51ad8a1a6ull},
       {0x665bdf2463ed1b29ull, 0x09162b540bde7d0aull}},
  };
  IndexBuildOptions options;
  const std::string path = TempPath("pinned_image");
  for (const Case& c : cases) {
    const testing::CorpusSpec spec = testing::MakeCorpusSpec(c.seed);
    XmlTree tree = testing::MakeCorpusTree(spec);
    JDeweyEncoding enc = JDeweyBuilder::Assign(tree, options.jdewey_gap);
    Rng rng(c.seed);
    const size_t grown = tree.node_count() / 2;
    size_t updates = 0;
    for (size_t i = 0; i < grown; ++i) {
      NodeId parent = static_cast<NodeId>(rng.NextBounded(tree.node_count()));
      NodeId node = tree.AddChild(parent, "g");
      tree.AppendText(node, spec.terms[i % spec.terms.size()]);
      updates +=
          JDeweyBuilder::InsertAssign(tree, node, options.jdewey_gap, &enc);
    }
    EXPECT_GT(updates, grown) << "no insert re-encoded a subtree";
    std::vector<NodeId> range, interleaved;
    for (NodeId id = 0; id < tree.node_count(); ++id) {
      if (id >= tree.node_count() / 3) range.push_back(id);
      if (id % 2 == 1) interleaved.push_back(id);
    }
    const std::vector<NodeId>* groups[2] = {&range, &interleaved};
    for (size_t g = 0; g < 2; ++g) {
      SCOPED_TRACE("seed " + std::to_string(c.seed) + " group " +
                   std::to_string(g));
      JDeweyIndex segment = BuildSegmentIndex(tree, enc, *groups[g], options);
      ASSERT_TRUE(
          DiskIndexWriter::Write(segment, path, {}, groups[g]->size()).ok());
      EXPECT_EQ(FileDigest(path), c.image_digest[g]);
      EXPECT_EQ(FileDigest(path + ".manifest"), c.manifest_digest[g]);
    }
  }
  std::remove(path.c_str());
  std::remove((path + ".manifest").c_str());
}

}  // namespace
}  // namespace xtopk
