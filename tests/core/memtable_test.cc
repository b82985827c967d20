// The incremental memtable (index/segment_view.h Memtable, DESIGN.md §10).
// A durable engine driven through a seeded mix of appended documents, text
// appended to memtable nodes, inserts that re-encode earlier memtable
// documents, seals, a compaction and a full rebuild keeps, after every
// refresh, exactly the memtable a from-scratch BuildSegmentIndex over
// [watermark, node_count) gives, and answers every read like a fresh
// Engine over the same tree. The counter index.memtable_nodes_indexed
// shows each appended node indexed once. Every version's normalizer is
// bit-equal to a brute-force max over every term of the tree.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/scoring.h"
#include "core/updatable_engine.h"
#include "index/index_access.h"
#include "index/segment.h"
#include "index/segment_builder.h"
#include "index/segment_view.h"
#include "obs/metrics.h"
#include "testing/durable.h"
#include "util/rng.h"
#include "xml/jdewey_builder.h"
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

/// BuildSegmentIndex over every node of the engine's tree: each term's
/// corpus-wide rows and max tf.
JDeweyIndex WholeTree(const UpdatableEngine& engine) {
  std::vector<NodeId> all(engine.tree().node_count());
  std::iota(all.begin(), all.end(), NodeId{0});
  return BuildSegmentIndex(engine.tree(), engine.encoding(), all,
                           EngineOptions{}.index);
}

/// The engine's memtable against BuildSegmentIndex over [watermark,
/// node_count): every term's rows, runs, statistics and corpus figures,
/// and every (level, value) -> node lookup.
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
  JDeweyIndex whole = WholeTree(engine);
  ASSERT_EQ(got->terms().size(), want.term_count()) << ctx;
  for (const std::string& term : want.terms()) {
    const std::string where = ctx + " term " + term;
    const Memtable::Term* entry = got->Find(term);
    ASSERT_NE(entry, nullptr) << where;
    const JDeweyList& list = entry->list;
    const JDeweyList& expected = *want.GetList(term);
    EXPECT_EQ(list.lengths, expected.lengths) << where;
    EXPECT_EQ(list.scores, expected.scores) << where;
    // No NodeIds on memtable lists: each row maps to its node through the
    // memtable's (level, value) lookup.
    EXPECT_TRUE(list.nodes.empty()) << where;
    for (uint32_t row = 0; row < list.num_rows(); ++row) {
      uint32_t level = list.lengths[row];
      EXPECT_EQ(got->NodeAt(level, list.Component(row, level)),
                expected.nodes[row])
          << where << " row " << row;
    }
    EXPECT_EQ(list.max_length, expected.max_length) << where;
    ASSERT_EQ(list.columns.size(), expected.columns.size()) << where;
    for (size_t l = 0; l < expected.columns.size(); ++l) {
      EXPECT_EQ(list.columns[l].runs(), expected.columns[l].runs())
          << where << " level " << l + 1;
    }
    ExpectSameStats(entry->stats, *want.StatsOf(term), where);
    const JDeweyList& everywhere = *whole.GetList(term);
    EXPECT_EQ(entry->corpus.df, everywhere.num_rows()) << where;
    EXPECT_EQ(entry->corpus.max_tf, MaxTf(everywhere)) << where;
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

/// The normalizer of the engine's published version against a brute-force
/// max of RawLocalScore over every term of the tree, bit for bit, and the
/// memtable's frontier against its entries: both figures strictly
/// ascending, each point some entry's, every entry matched or beaten.
void ExpectExactNormalizer(const UpdatableEngine& engine,
                           const std::string& ctx) {
  std::shared_ptr<const SegmentSetVersion> version = engine.Pin();
  const uint64_t n = version->corpus_nodes();
  ASSERT_EQ(n, engine.tree().node_count()) << ctx;
  JDeweyIndex whole = WholeTree(engine);
  double want = 0.0;
  for (const std::string& term : whole.terms()) {
    const JDeweyList& list = *whole.GetList(term);
    want = std::max(want, RawLocalScore(MaxTf(list), list.num_rows(), n));
  }
  if (want <= 0.0) want = 1.0;
  EXPECT_EQ(version->state()->MaxRaw(version->memtable(), n), want) << ctx;

  const Memtable* memtable = version->memtable();
  if (memtable == nullptr) return;
  const std::vector<TermFigures>& frontier = memtable->frontier();
  ASSERT_FALSE(frontier.empty()) << ctx;
  for (size_t i = 1; i < frontier.size(); ++i) {
    EXPECT_LT(frontier[i - 1].max_tf, frontier[i].max_tf) << ctx;
    EXPECT_LT(frontier[i - 1].df, frontier[i].df) << ctx;
  }
  const auto& terms = memtable->terms();
  for (const TermFigures& point : frontier) {
    EXPECT_TRUE(std::any_of(terms.begin(), terms.end(), [&](const auto& e) {
      return e->corpus.max_tf == point.max_tf && e->corpus.df == point.df;
    })) << ctx;
  }
  for (const auto& entry : terms) {
    const TermFigures& f = entry->corpus;
    EXPECT_TRUE(std::any_of(frontier.begin(), frontier.end(),
                            [&](const TermFigures& point) {
                              return point.max_tf >= f.max_tf &&
                                     point.df <= f.df;
                            }))
        << ctx << " term " << entry->term;
  }
}

XmlTree PaperTitled(const std::string& title) {
  XmlTree doc;
  doc.AppendText(doc.AddChild(doc.CreateRoot("paper"), "title"), title);
  return doc;
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
      ExpectExactNormalizer(*engine, ctx);
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

// Seeded AddDocument / refresh / SealMemtable / compaction sequences. A
// scripted prefix puts a memtable term above every sealed one, ties in
// (max tf, df) within the memtable and against a sealed term, and a
// compaction between two refreshes of one memtable; seeded steps follow.
TEST(MaxRawOracleTest, NormalizerIsBitEqualToBruteForceMax) {
  for (uint64_t seed : {4u, 5u, 6u}) {
    Rng rng(seed);
    testing::ScopedDataDir dir("max_raw_oracle_" + std::to_string(seed));
    std::unique_ptr<UpdatableEngine> engine = testing::OpenDurableNoBackground(
        ParseXmlStringOrDie("<db><paper><title>xml keyword search</title>"
                            "</paper><paper><title>lattice</title></paper>"
                            "</db>"),
        dir.path());
    ASSERT_NE(engine, nullptr);
    auto refresh = [&](const std::string& ctx) {
      engine->plan_watermark();
      ExpectExactNormalizer(*engine, ctx);
    };
    for (size_t i = 0; i < 2; ++i) {
      engine->AddDocument("s" + std::to_string(i), MakePaper(&rng));
      refresh("seal " + std::to_string(i));
      ASSERT_TRUE(engine->SealMemtable().ok());
    }
    ASSERT_EQ(engine->segment_count(), 3u);

    // tf 12 with df 1: no sealed term comes near (MakePaper repeats a
    // word at most 3 times in one node).
    std::string zeniths;
    for (int i = 0; i < 12; ++i) zeniths += "zenith ";
    engine->AddDocument("top", PaperTitled(zeniths));
    // "alpha" and "beta" tie at (2, 1); "gamma" at (1, 1) ties the sealed
    // "lattice".
    engine->AddDocument("tie", PaperTitled("alpha alpha beta beta gamma"));
    refresh("dominating");
    const uint64_t n = engine->tree().node_count();
    EXPECT_EQ(engine->Pin()->state()->MaxRaw(engine->memtable().get(), n),
              RawLocalScore(12, 1, n));
    const Memtable::Term* alpha = engine->memtable()->Find("alpha");
    ASSERT_NE(alpha, nullptr);
    EXPECT_EQ(alpha->corpus.max_tf, 2u);
    EXPECT_EQ(alpha->corpus.df, 1u);

    // Compaction between two refreshes of the same memtable: entries made
    // before it keep their sealed figures, entries made after read the
    // compacted set's.
    const std::shared_ptr<const Memtable> before = engine->memtable();
    ASSERT_TRUE(engine->Compact().ok());
    EXPECT_EQ(engine->segment_count(), 1u);
    EXPECT_EQ(engine->memtable(), before);
    engine->AddDocument("after", PaperTitled("zenith search ranking"));
    refresh("after compaction");

    for (size_t step = 0; step < 60; ++step) {
      const std::string ctx =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      const uint64_t pick = rng.NextBounded(100);
      if (pick < 70 || engine->memtable_docs() == 0) {
        engine->AddDocument("p" + std::to_string(step), MakePaper(&rng));
      } else if (pick < 90) {
        ASSERT_TRUE(engine->SealMemtable().ok()) << ctx;
      } else {
        while (engine->scheduler()->RunOnce()) {
        }
      }
      refresh(ctx);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(MaxRawCounterTest, CountsTheFrontierAndTheSealedTermsVisited) {
  obs::Counter& scanned = obs::MetricsRegistry::Global().GetCounter(
      "index.max_raw_terms_scanned");
  // Node ids: db 0, paper 1, title 2, paper 3, title 4.
  XmlTree tree = ParseXmlStringOrDie(
      "<db><paper><title>xml xml keyword</title></paper>"
      "<paper><title>xml xml search</title></paper></db>");
  IndexBuildOptions options;
  options.index_tag_names = false;
  JDeweyEncoding enc = JDeweyBuilder::Assign(tree, options.jdewey_gap);
  SegmentedIndex index;
  index.AddMemorySegment(BuildSegmentIndex(tree, enc, {0, 1, 2}, options), 3);
  std::shared_ptr<const Memtable> memtable =
      Memtable::Extend(nullptr, BuildSegmentIndex(tree, enc, {3, 4}, options),
                       options.stats_buckets, *index.Pin()->state());
  // Corpus (max tf, df): xml (2, 2) and search (1, 1) in the memtable,
  // keyword (1, 1) sealed only. The frontier is search's and xml's; the
  // sealed walk visits keyword (tf 1, first term the memtable lacks) and
  // xml (tf 2, held, the group's last term).
  ASSERT_EQ(memtable->frontier().size(), 2u);
  const int64_t before = scanned.value();
  const double max_raw =
      index.Pin()->state()->MaxRaw(memtable.get(), tree.node_count());
  EXPECT_EQ(scanned.value() - before, 4);
  EXPECT_EQ(max_raw, std::max(RawLocalScore(2, 2, tree.node_count()),
                              RawLocalScore(1, 1, tree.node_count())));
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
