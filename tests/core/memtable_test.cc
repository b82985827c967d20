// The incremental memtable (index/segment_view.h Memtable, DESIGN.md §10).
// A durable engine driven through a seeded mix of appended documents, text
// appended to memtable nodes, inserts that re-encode earlier memtable
// documents, seals, a compaction and a full rebuild keeps, after every
// refresh, exactly the memtable a from-scratch BuildSegmentIndex over
// [watermark, node_count) gives, and answers every read like a fresh
// Engine over the same tree. The counter index.memtable_nodes_indexed
// shows each appended node indexed once.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/updatable_engine.h"
#include "index/index_access.h"
#include "index/segment_builder.h"
#include "index/segment_view.h"
#include "obs/metrics.h"
#include "testing/durable.h"
#include "util/rng.h"
#include "xml/xml_parser.h"

namespace xtopk {
namespace {

const char* const kWords[] = {"xml",   "keyword", "search", "ranking",
                              "top",   "query",   "index",  "tree",
                              "join",  "score",   "graph",  "node"};
const char* const kTags[] = {"title", "author", "note"};

std::string Words(Rng* rng, size_t count) {
  std::string text;
  for (size_t i = 0; i < count; ++i) {
    if (i > 0) text += ' ';
    text += kWords[rng->NextBounded(std::size(kWords))];
  }
  return text;
}

XmlTree MakePaper(Rng* rng) {
  XmlTree doc;
  NodeId root = doc.CreateRoot("paper");
  size_t kids = 1 + rng->NextBounded(4);
  for (size_t i = 0; i < kids; ++i) {
    NodeId child =
        doc.AddChild(root, kTags[rng->NextBounded(std::size(kTags))]);
    doc.AppendText(child, Words(rng, 1 + rng->NextBounded(3)));
  }
  return doc;
}

void ExpectSameStats(const TermStats& got, const TermStats& want,
                     const std::string& ctx) {
  EXPECT_EQ(got.rows, want.rows) << ctx;
  ASSERT_EQ(got.levels.size(), want.levels.size()) << ctx;
  for (size_t l = 0; l < want.levels.size(); ++l) {
    const auto& a = got.levels[l].buckets();
    const auto& b = want.levels[l].buckets();
    ASSERT_EQ(a.size(), b.size()) << ctx << " level " << l + 1;
    for (size_t i = 0; i < b.size(); ++i) {
      EXPECT_EQ(a[i].lo, b[i].lo) << ctx << " level " << l + 1;
      EXPECT_EQ(a[i].hi, b[i].hi) << ctx << " level " << l + 1;
      EXPECT_EQ(a[i].count, b[i].count) << ctx << " level " << l + 1;
    }
    EXPECT_EQ(got.levels[l].total(), want.levels[l].total()) << ctx;
  }
}

/// The engine's memtable against BuildSegmentIndex over [watermark,
/// node_count): every term's rows, runs, statistics and max tf, and every
/// (level, value) -> node lookup.
void ExpectMemtableMatchesRebuild(const UpdatableEngine& engine,
                                  const std::string& ctx) {
  const XmlTree& tree = engine.tree();
  std::vector<NodeId> nodes;
  for (NodeId id = engine.watermark(); id < tree.node_count(); ++id) {
    nodes.push_back(id);
  }
  const Memtable* got = engine.memtable().get();
  if (nodes.empty()) {
    EXPECT_EQ(got, nullptr) << ctx;
    return;
  }
  ASSERT_NE(got, nullptr) << ctx;
  JDeweyIndex want = BuildSegmentIndex(tree, engine.encoding(), nodes,
                                       EngineOptions{}.index);
  ASSERT_EQ(got->terms().size(), want.term_count()) << ctx;
  for (const std::string& term : want.terms()) {
    const std::string where = ctx + " term " + term;
    const Memtable::Term* entry = got->Find(term);
    ASSERT_NE(entry, nullptr) << where;
    const JDeweyList& list = entry->list;
    const JDeweyList& expected = *want.GetList(term);
    EXPECT_EQ(list.lengths, expected.lengths) << where;
    EXPECT_EQ(list.scores, expected.scores) << where;
    EXPECT_EQ(list.nodes, expected.nodes) << where;
    EXPECT_EQ(list.max_length, expected.max_length) << where;
    ASSERT_EQ(list.columns.size(), expected.columns.size()) << where;
    for (size_t l = 0; l < expected.columns.size(); ++l) {
      EXPECT_EQ(list.columns[l].runs(), expected.columns[l].runs())
          << where << " level " << l + 1;
    }
    ExpectSameStats(entry->stats, *want.StatsOf(term), where);
    uint32_t max_tf = 0;
    for (float tf : expected.scores) {
      max_tf = std::max(max_tf, static_cast<uint32_t>(tf));
    }
    EXPECT_EQ(entry->max_tf, max_tf) << where;
  }
  EXPECT_EQ(got->max_level(), want.max_level()) << ctx;
  const auto& levels = IndexIoAccess::LevelNodes(want);
  for (uint32_t level = 1; level <= levels.size() + 1; ++level) {
    uint32_t top = level <= levels.size() && !levels[level - 1].empty()
                       ? levels[level - 1].back().first
                       : 0;
    for (uint32_t value = 0; value <= top + 2; ++value) {
      ASSERT_EQ(got->NodeAt(level, value), want.NodeAt(level, value))
          << ctx << " level " << level << " value " << value;
    }
  }
}

TEST(MemtableOracleTest, RefreshesMatchFromScratchBuildAndFreshEngine) {
  size_t memtable_reencodes = 0;
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    XmlTree base = ParseXmlStringOrDie(
        "<db><paper><title>xml keyword search</title></paper>"
        "<paper><title>top k ranking</title><author>ann</author></paper>"
        "</db>");
    testing::ScopedDataDir dir("memtable_oracle_" + std::to_string(seed));
    std::unique_ptr<UpdatableEngine> engine =
        testing::OpenDurableNoBackground(std::move(base), dir.path());
    ASSERT_NE(engine, nullptr);

    bool compacted = false;
    bool rebuilt = false;
    for (size_t step = 0; step < 120; ++step) {
      const std::string ctx =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      const NodeId watermark = engine->watermark();
      const size_t count = engine->tree().node_count();
      const uint64_t pick = rng.NextBounded(100);
      if (pick < 50 || watermark >= count) {
        engine->AddDocument("p" + std::to_string(step), MakePaper(&rng));
      } else if (pick < 65) {
        NodeId node = watermark + static_cast<NodeId>(
                                      rng.NextBounded(count - watermark));
        engine->AppendText(node, Words(&rng, 1));
      } else if (pick < 85) {
        // Under an earlier memtable node: often past its reserved range,
        // which re-encodes the subtree of its document.
        NodeId parent = watermark + static_cast<NodeId>(
                                        rng.NextBounded(count - watermark));
        const uint64_t updates = engine->encoding_updates();
        const uint64_t rebuilds = engine->rebuilds();
        engine->AddElement(parent, "note", Words(&rng, 2));
        engine->plan_watermark();
        if (engine->encoding_updates() > updates + 1 &&
            engine->rebuilds() == rebuilds) {
          ++memtable_reencodes;
        }
      } else if (pick < 93) {
        ASSERT_TRUE(engine->SealMemtable().ok()) << ctx;
      } else if (!compacted && engine->segment_count() >= 3) {
        ASSERT_TRUE(engine->Compact().ok()) << ctx;
        compacted = true;
      } else if (!rebuilt && step > 60 && watermark > 1) {
        // Text on a sealed node: the next read rebuilds everything.
        engine->AppendText(1, "graph");
        rebuilt = true;
      }

      engine->plan_watermark();  // the lazy refresh
      ASSERT_FALSE(engine->dirty()) << ctx;
      ExpectMemtableMatchesRebuild(*engine, ctx);
      if (::testing::Test::HasFatalFailure()) return;

      std::vector<std::string> query;
      const size_t arity = 1 + rng.NextBounded(2);
      for (size_t i = 0; i < arity; ++i) {
        query.push_back(kWords[rng.NextBounded(std::size(kWords))]);
      }
      Engine reference(engine->tree());
      EXPECT_EQ(ResultFingerprint(engine->SearchTopK(query, 10)),
                ResultFingerprint(reference.SearchTopK(query, 10)))
          << ctx;
      EXPECT_EQ(ResultFingerprint(engine->Search(query)),
                ResultFingerprint(reference.Search(query)))
          << ctx;
    }
    EXPECT_TRUE(compacted) << "seed " << seed;
    EXPECT_TRUE(rebuilt) << "seed " << seed;
    EXPECT_GE(engine->rebuilds(), 1u) << "seed " << seed;
  }
  EXPECT_GT(memtable_reencodes, 0u) << "no insert re-encoded a memtable doc";
}

TEST(MemtableCounterTest, RefreshesIndexEachAppendedNodeOnce) {
  obs::Counter& indexed = obs::MetricsRegistry::Global().GetCounter(
      "index.memtable_nodes_indexed");
  UpdatableEngine engine(ParseXmlStringOrDie(
      "<db><paper><title>xml seed</title></paper></db>"));
  const size_t start = engine.tree().node_count();
  const int64_t before = indexed.value();

  // D appended documents with a read every r: each node indexed once.
  constexpr size_t kDocs = 40;
  constexpr size_t kDocsPerRead = 3;
  Rng rng(11);
  NodeId first_paper = kInvalidNode;
  for (size_t d = 0; d < kDocs; ++d) {
    NodeId wrapper =
        engine.AddDocument("p" + std::to_string(d), MakePaper(&rng));
    if (d == 0) first_paper = engine.tree().Children(wrapper).front();
    if ((d + 1) % kDocsPerRead == 0) engine.Search({"xml"});
  }
  engine.Search({"xml"});
  EXPECT_EQ(indexed.value() - before,
            static_cast<int64_t>(engine.tree().node_count() - start));
  EXPECT_EQ(engine.memtable_refreshes(),
            (kDocs + kDocsPerRead - 1) / kDocsPerRead);

  // Children under the first document's paper until one overflows its
  // reserved range and re-encodes that document: the next refresh
  // indexes the whole memtable once more, and nothing sealed moves.
  const int64_t appended = indexed.value();
  bool reencoded = false;
  for (int i = 0; i < 16 && !reencoded; ++i) {
    const uint64_t updates = engine.encoding_updates();
    engine.AddElement(first_paper, "note", "graph");
    reencoded = engine.encoding_updates() > updates + 1;
  }
  ASSERT_TRUE(reencoded);
  engine.Search({"xml"});
  EXPECT_EQ(engine.rebuilds(), 0u);
  EXPECT_EQ(indexed.value() - appended,
            static_cast<int64_t>(engine.tree().node_count() -
                                 engine.watermark()));
}

}  // namespace
}  // namespace xtopk
