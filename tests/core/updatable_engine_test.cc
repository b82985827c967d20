#include "core/updatable_engine.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/multi_doc.h"
#include "obs/metrics.h"
#include "obs/slow_log.h"
#include "testing/corpus.h"
#include "testing/durable.h"
#include "util/rng.h"
#include "xml/xml_parser.h"

namespace xtopk {
namespace {

TEST(UpdatableEngineTest, InsertionsBecomeSearchable) {
  UpdatableEngine engine(ParseXmlStringOrDie("<db><paper>xml</paper></db>"));
  EXPECT_TRUE(engine.Search({"xml", "zebra"}).empty());

  NodeId paper = engine.AddElement(engine.tree().root(), "paper");
  engine.AppendText(paper, "zebra xml");
  EXPECT_TRUE(engine.dirty());
  auto hits = engine.Search({"xml", "zebra"});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].node, paper);
  EXPECT_FALSE(engine.dirty());
  // Appends land in the memtable; the base segment is untouched.
  EXPECT_EQ(engine.rebuilds(), 0u);
  EXPECT_EQ(engine.memtable_refreshes(), 1u);
}

TEST(UpdatableEngineTest, MemtableRefreshesAreBatched) {
  UpdatableEngine engine(ParseXmlStringOrDie("<db><p>seed</p></db>"));
  for (int i = 0; i < 50; ++i) {
    engine.AddElement(engine.tree().root(), "p", "word" + std::to_string(i));
  }
  EXPECT_EQ(engine.memtable_refreshes(), 0u);  // no query yet, no refresh
  engine.Search({"word0"});
  engine.Search({"word1"});
  engine.Search({"word2"});
  EXPECT_EQ(engine.memtable_refreshes(), 1u);  // one refresh served all three
  EXPECT_EQ(engine.rebuilds(), 0u);            // and nothing was rebuilt
}

TEST(UpdatableEngineTest, DirtyReadPublishesOneVersion) {
  UpdatableEngine engine(ParseXmlStringOrDie("<db><p>xml seed</p></db>"));
  uint64_t version = engine.plan_watermark();
  for (int i = 0; i < 4; ++i) {
    SCOPED_TRACE("read " + std::to_string(i));
    engine.AddElement(engine.tree().root(), "p",
                      "xml word" + std::to_string(i));
    // The refreshed memtable and the grown node count go out together.
    EXPECT_FALSE(engine.Search({"xml"}).empty());
    EXPECT_EQ(engine.plan_watermark(), version + 1);
    version = engine.plan_watermark();
    // A clean read publishes nothing.
    EXPECT_FALSE(engine.SearchTopK({"xml"}, 3).empty());
    EXPECT_EQ(engine.plan_watermark(), version);
  }
}

TEST(UpdatableEngineTest, AppendOnlyWorkloadNeverRebuilds) {
  // With a gap wide enough that the sealed root's reservation is never
  // exhausted, re-encodes only ever move memtable nodes. (Overflowing a
  // sealed node's gap legitimately rebuilds — that is the fallback path,
  // covered by AppendTextToSealedNodeRebuilds.)
  EngineOptions options;
  options.index.jdewey_gap = 64;
  UpdatableEngine engine(ParseXmlStringOrDie("<db><p>seed</p></db>"), options);
  // Interleave appends (always under freshly added nodes or the root) with
  // queries: the sealed base never goes stale, so rebuilds() must stay 0.
  NodeId last = engine.tree().root();
  for (int i = 0; i < 40; ++i) {
    last = engine.AddElement(i % 4 == 0 ? engine.tree().root() : last, "n",
                             "tok" + std::to_string(i));
    if (i % 10 == 9) {
      EXPECT_FALSE(engine.Search({"tok" + std::to_string(i)}).empty());
    }
  }
  EXPECT_EQ(engine.rebuilds(), 0u);
  EXPECT_GT(engine.memtable_refreshes(), 0u);
  ASSERT_TRUE(engine.ValidateEncoding().ok());
}

TEST(UpdatableEngineTest, EmptyAppendTextIsNoOp) {
  UpdatableEngine engine(ParseXmlStringOrDie("<db><p>seed</p></db>"));
  ASSERT_FALSE(engine.Search({"seed"}).empty());
  EXPECT_FALSE(engine.dirty());
  // Regression: a no-op mutation must not dirty the index (it used to
  // force a full rebuild on the next query).
  engine.AppendText(engine.tree().root(), "");
  engine.AppendText(1, "");
  EXPECT_FALSE(engine.dirty());
  uint64_t refreshes = engine.memtable_refreshes();
  ASSERT_FALSE(engine.Search({"seed"}).empty());
  EXPECT_EQ(engine.rebuilds(), 0u);
  EXPECT_EQ(engine.memtable_refreshes(), refreshes);
}

TEST(UpdatableEngineTest, AppendTextToSealedNodeRebuilds) {
  UpdatableEngine engine(ParseXmlStringOrDie("<db><p>seed</p></db>"));
  // Node 1 (<p>) is below the watermark: its rows live in the sealed base.
  engine.AppendText(1, "amended");
  EXPECT_TRUE(engine.dirty());
  auto hits = engine.Search({"amended"});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].node, 1u);
  EXPECT_EQ(engine.rebuilds(), 1u);
}

TEST(UpdatableEngineTest, EncodingMaintainedAcrossManyInserts) {
  UpdatableEngine engine(testing::MakeSmallCorpus());
  Rng rng(55);
  for (int i = 0; i < 200; ++i) {
    NodeId parent =
        static_cast<NodeId>(rng.NextBounded(engine.tree().node_count()));
    if (engine.tree().level(parent) >= 8) continue;
    engine.AddElement(parent, "n", rng.NextBernoulli(0.3) ? "xml" : "data");
  }
  ASSERT_TRUE(engine.ValidateEncoding().ok());
  EXPECT_GT(engine.encoding_updates(), 0u);
  // Queries over the mutated tree still work end to end.
  auto hits = engine.Search({"xml", "data"});
  EXPECT_FALSE(hits.empty());
  auto topk = engine.SearchTopK({"xml", "data"}, 3);
  ASSERT_LE(topk.size(), 3u);
  for (size_t i = 0; i < topk.size(); ++i) {
    EXPECT_NEAR(topk[i].score, hits[i].score, 1e-9);
  }
}

TEST(UpdatableEngineTest, CheapInsertsUseReservedGaps) {
  EngineOptions options;
  options.index.jdewey_gap = 8;
  UpdatableEngine engine(ParseXmlStringOrDie("<db><a>x</a><b>y</b></db>"),
                         options);
  // Up to the gap, each insert changes exactly one number.
  uint64_t before = engine.encoding_updates();
  for (int i = 0; i < 8; ++i) {
    engine.AddElement(engine.tree().root(), "c");
  }
  EXPECT_EQ(engine.encoding_updates() - before, 8u);
}

TEST(UpdatableEngineTest, AddDocumentMatchesMultiDocCorpus) {
  const char* docs[] = {
      "<paper><title>xml keyword search</title><author>ann</author></paper>",
      "<paper><title>top k ranking</title><author>bo</author></paper>",
      "<book><title>xml databases</title></book>",
  };
  MultiDocCorpus corpus;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(corpus.AddDocumentXml("d" + std::to_string(i), docs[i]).ok());
  }
  Engine monolithic(corpus.tree());

  XmlTree shell;
  shell.CreateRoot("collection");
  UpdatableEngine incremental(std::move(shell));
  for (int i = 0; i < 3; ++i) {
    incremental.AddDocument("d" + std::to_string(i),
                            ParseXmlStringOrDie(docs[i]));
  }

  for (const auto& query : std::vector<std::vector<std::string>>{
           {"xml"}, {"xml", "title"}, {"title", "author"}, {"k", "top"}}) {
    auto want = monolithic.Search(query);
    auto got = incremental.Search(query);
    ASSERT_EQ(got.size(), want.size()) << query[0];
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].node, want[i].node);
      EXPECT_EQ(got[i].level, want[i].level);
      EXPECT_DOUBLE_EQ(got[i].score, want[i].score);
    }
  }
  EXPECT_EQ(incremental.rebuilds(), 0u);
  EXPECT_EQ(incremental.memtable_docs(), 3u);
}

TEST(UpdatableEngineTest, SealAndCompactPreserveResults) {
  testing::ScopedDataDir dir("upd_seal_compact");
  std::unique_ptr<UpdatableEngine> durable = testing::OpenDurableNoBackground(
      ParseXmlStringOrDie("<db><p>xml data</p></db>"), dir.path());
  ASSERT_NE(durable, nullptr);
  UpdatableEngine& engine = *durable;
  engine.AddElement(engine.tree().root(), "p", "xml keyword");
  auto before = engine.Search({"xml"});
  ASSERT_FALSE(before.empty());

  ASSERT_TRUE(engine.SealMemtable().ok());
  EXPECT_EQ(engine.memtable_docs(), 0u);
  auto after_seal = engine.Search({"xml"});
  ASSERT_EQ(after_seal.size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after_seal[i].node, before[i].node);
    EXPECT_DOUBLE_EQ(after_seal[i].score, before[i].score);
  }

  engine.AddElement(engine.tree().root(), "p", "xml ranking");
  ASSERT_TRUE(engine.SealMemtable().ok());
  EXPECT_GE(engine.segment_count(), 3u);  // base + two sealed

  auto pre_compact = engine.Search({"xml"});
  ASSERT_TRUE(engine.Compact().ok());
  EXPECT_EQ(engine.segment_count(), 1u);
  auto post_compact = engine.Search({"xml"});
  ASSERT_EQ(post_compact.size(), pre_compact.size());
  for (size_t i = 0; i < pre_compact.size(); ++i) {
    EXPECT_EQ(post_compact[i].node, pre_compact[i].node);
    EXPECT_DOUBLE_EQ(post_compact[i].score, pre_compact[i].score);
  }
  EXPECT_EQ(engine.rebuilds(), 0u);
}

TEST(UpdatableEngineTest, ExpiredDeadlineCountsAsExpiration) {
  UpdatableEngine engine(testing::MakeSmallCorpus());
  obs::Counter& expirations = obs::MetricsRegistry::Global().GetCounter(
      "engine.deadline_expirations");
  for (size_t k : {size_t{0}, size_t{10}}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    const uint64_t before = expirations.value();
    BatchQueryResult result =
        engine.Run({.keywords = {"xml", "data"},
                    .k = k,
                    .semantics = Semantics::kElca,
                    .deadline = DeadlineToken::AtMicros(0)});
    EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(engine.last_status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(expirations.value(), before + 1);
  }
}

/// Engine and UpdatableEngine run every query through one RunQuery, so
/// over the same tree (two builds of `make_tree`) they agree on the
/// answer, the status, the engine.queries count and the slow-log capture.
template <typename MakeTree>
void ExpectEngineParity(MakeTree make_tree,
                        const std::vector<std::vector<std::string>>& queries) {
  const XmlTree tree = make_tree();
  Engine engine(tree);
  UpdatableEngine updatable(make_tree());
  obs::SlowQueryLog& slow_log = obs::SlowQueryLog::Global();
  const obs::SlowLogOptions original = slow_log.options();
  obs::SlowLogOptions capture_all;
  capture_all.latency_threshold_us = 0;
  slow_log.Reconfigure(capture_all);
  obs::Counter& counted =
      obs::MetricsRegistry::Global().GetCounter("engine.queries");
  // Runs `query` on one engine; checks it counted once and was captured.
  auto run = [&](auto& which, const BatchQuery& query,
                 obs::SlowQueryCapture* capture) {
    const uint64_t before = counted.value();
    BatchQueryResult result = which.Run(query);
    EXPECT_EQ(counted.value(), before + 1);
    std::vector<obs::SlowQueryCapture> recent = slow_log.Recent(1);
    EXPECT_EQ(recent.size(), 1u);
    if (!recent.empty()) *capture = recent.back();
    EXPECT_EQ(capture->result_fingerprint, ResultFingerprint(result.hits));
    return result;
  };
  size_t total_hits = 0;
  for (const std::vector<std::string>& keywords : queries) {
    for (Semantics semantics : {Semantics::kElca, Semantics::kSlca}) {
      for (size_t k : {size_t{0}, size_t{10}}) {
        SCOPED_TRACE(::testing::PrintToString(keywords) + " k=" +
                     std::to_string(k) +
                     (semantics == Semantics::kElca ? " elca" : " slca"));
        const BatchQuery query{.keywords = keywords,
                               .k = k,
                               .semantics = semantics,
                               .deadline = {}};
        obs::SlowQueryCapture from_engine, from_updatable;
        BatchQueryResult a = run(engine, query, &from_engine);
        BatchQueryResult b = run(updatable, query, &from_updatable);
        total_hits += a.hits.size();
        EXPECT_EQ(ResultFingerprint(a.hits), ResultFingerprint(b.hits));
        EXPECT_EQ(a.status.code(), b.status.code());
        EXPECT_EQ(from_engine.keywords, from_updatable.keywords);
        EXPECT_EQ(from_engine.k, from_updatable.k);
        EXPECT_EQ(from_engine.semantics, from_updatable.semantics);
        EXPECT_EQ(from_engine.hits, from_updatable.hits);
        EXPECT_EQ(from_engine.result_fingerprint,
                  from_updatable.result_fingerprint);
      }
    }
  }
  slow_log.Reconfigure(original);
  EXPECT_GT(total_hits, 0u) << "the workload must have answers to compare";
}

TEST(EngineParityTest, SmallCorpus) {
  ExpectEngineParity(testing::MakeSmallCorpus,
                     {{"xml", "data"}, {"XML"}, {"data"}, {"xml", "zebra"}});
}

TEST(EngineParityTest, RandomTree) {
  ExpectEngineParity(
      [] {
        return testing::MakeRandomTree(/*seed=*/11, /*max_nodes=*/400,
                                       /*max_children=*/5, /*max_depth=*/8,
                                       {"alpha", "beta", "gamma"},
                                       /*term_prob=*/0.2);
      },
      {{"alpha", "beta"}, {"beta", "gamma"}, {"alpha", "beta", "gamma"},
       {"gamma"}});
}

}  // namespace
}  // namespace xtopk
