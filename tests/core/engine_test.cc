#include "core/engine.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "testing/corpus.h"
#include "workload/dblp_gen.h"
#include "xml/xml_parser.h"

namespace xtopk {
namespace {

using Ids = testing::SmallCorpusIds;

TEST(EngineTest, EndToEndFromXmlText) {
  XmlTree tree = ParseXmlStringOrDie(R"(
    <db>
      <conf><paper>xml data</paper>
            <paper><title>xml</title><abs>data</abs></paper>
            <paper><title>xml</title></paper></conf>
      <conf><paper><title>data</title></paper>
            <paper><title>xml data xml</title></paper></conf>
    </db>)");
  Engine engine(tree);
  auto hits = engine.Search({"xml", "data"});
  ASSERT_EQ(hits.size(), 4u);
  // Sorted by score descending; every hit carries presentation context.
  for (size_t i = 1; i < hits.size(); ++i) {
    EXPECT_GE(hits[i - 1].score, hits[i].score);
  }
  for (const QueryHit& hit : hits) {
    EXPECT_FALSE(hit.tag.empty());
    EXPECT_NE(hit.node, kInvalidNode);
  }
}

TEST(EngineTest, TopKAgreesWithCompleteSearch) {
  XmlTree tree = testing::MakeSmallCorpus();
  Engine engine(tree);
  auto all = engine.Search({"xml", "data"});
  auto top2 = engine.SearchTopK({"xml", "data"}, 2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0].node, all[0].node);
  EXPECT_NEAR(top2[0].score, all[0].score, 1e-9);
  EXPECT_NEAR(top2[1].score, all[1].score, 1e-9);
}

TEST(EngineTest, HybridReturnsSameAnswers) {
  // SearchTopK picks its strategy per query — the star join where it
  // proves k results inside its budget (the correlated records), the
  // complete join otherwise (the small corpus) — and answers the complete
  // result's top k either way.
  XmlTree small = testing::MakeSmallCorpus();
  XmlTree correlated = testing::MakeCorrelatedRecords(20000);
  for (const XmlTree* tree : {&small, &correlated}) {
    Engine engine(*tree);
    auto top = engine.SearchTopK({"xml", "data"}, 3);
    auto all = engine.Search({"xml", "data"});
    ASSERT_EQ(top.size(), 3u);
    for (size_t i = 0; i < top.size(); ++i) {
      EXPECT_NEAR(top[i].score, all[i].score, 1e-9);
    }
  }
}

TEST(EngineTest, WideQueriesMatchCompleteSearch) {
  // The most frequent terms of a DBLP-like corpus, 31 to 40 at a time: the
  // star join's source mask ends at 31, wider queries take the complete
  // route and must still return the complete result's top 10.
  DblpGenOptions gen;
  gen.num_conferences = 10;
  gen.years_per_conference = 5;
  gen.papers_per_year = 20;
  DblpCorpus corpus = GenerateDblp(gen);
  Engine engine(corpus.tree);
  std::vector<TermInfo> terms = engine.builder().terms();
  std::sort(terms.begin(), terms.end(),
            [](const TermInfo& a, const TermInfo& b) {
              return a.frequency > b.frequency;
            });
  for (size_t width : {31u, 32u, 33u, 40u}) {
    std::vector<std::string> query;
    for (size_t i = 0; i < width; ++i) query.push_back(terms[i].term);
    auto all = engine.Search(query);
    auto top = engine.SearchTopK(query, 10);
    ASSERT_FALSE(all.empty()) << width;
    ASSERT_EQ(top.size(), std::min<size_t>(10, all.size())) << width;
    for (size_t i = 0; i < top.size(); ++i) {
      EXPECT_NEAR(top[i].score, all[i].score, 1e-9) << width << " " << i;
    }
  }
}

TEST(EngineTest, SlcaSemantics) {
  XmlTree tree = testing::MakeSmallCorpus();
  Engine engine(tree);
  auto hits = engine.Search({"xml", "data"}, Semantics::kSlca);
  EXPECT_EQ(hits.size(), 3u);  // SLCA is unaffected: db has SLCA descendants
}

TEST(EngineTest, FrequencyLookup) {
  XmlTree tree = testing::MakeSmallCorpus();
  Engine engine(tree);
  EXPECT_EQ(engine.Frequency("xml"), 4u);
  EXPECT_EQ(engine.Frequency("absent"), 0u);
}

TEST(EngineTest, SnippetsComeFromAnswerRoot) {
  XmlTree tree = testing::MakeSmallCorpus();
  Engine engine(tree);
  auto hits = engine.Search({"xml", "data"});
  bool found_direct = false;
  for (const QueryHit& hit : hits) {
    if (hit.node == Ids::kPaper0) {
      EXPECT_EQ(hit.snippet, "xml data");
      EXPECT_EQ(hit.tag, "paper");
      found_direct = true;
    }
  }
  EXPECT_TRUE(found_direct);
}

TEST(EngineTest, QueryNormalization) {
  XmlTree tree = testing::MakeSmallCorpus();
  Engine engine(tree);
  // Case folding and tokenization at query time.
  auto upper = engine.Search({"XML", "Data"});
  auto lower = engine.Search({"xml", "data"});
  ASSERT_EQ(upper.size(), lower.size());
  for (size_t i = 0; i < upper.size(); ++i) {
    EXPECT_EQ(upper[i].node, lower[i].node);
  }
  // A multi-token keyword expands ("xml data" == {"xml", "data"}).
  auto phrase = engine.Search({"xml data"});
  ASSERT_EQ(phrase.size(), lower.size());
  // Duplicate keywords collapse instead of producing a degenerate join.
  auto dup = engine.Search({"xml", "XML", "data"});
  ASSERT_EQ(dup.size(), lower.size());
}

TEST(EngineTest, HighlightKeywords) {
  EXPECT_EQ(HighlightKeywords("xml data management", {"data"}),
            "xml [data] management");
  EXPECT_EQ(HighlightKeywords("XML and xml", {"xml"}), "[XML] and [xml]");
  EXPECT_EQ(HighlightKeywords("metadata is not data", {"data"}),
            "metadata is not [data]");  // whole tokens only
  EXPECT_EQ(HighlightKeywords("a,b;c", {"b"}), "a,[b];c");
  EXPECT_EQ(HighlightKeywords("", {"x"}), "");
  EXPECT_EQ(HighlightKeywords("top-k search", {"top-k"}, "<b>", "</b>"),
            "<b>top</b>-<b>k</b> search");
}

}  // namespace
}  // namespace xtopk
