// Engine::Explain: the EXPLAIN/profile surface must return the same answers
// as the plain search calls, and its span tree must follow the fixed
// query -> {tokenize, term_lookup, search, materialize} shape with the
// per-level / per-column spans underneath.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/engine.h"
#include "obs/metrics.h"
#include "testing/corpus.h"
#include "xml/xml_parser.h"

namespace xtopk {
namespace {

constexpr const char* kFixtureXml = R"(
<bib>
  <book year="2008">
    <title>XML data management</title>
    <author>alice</author>
    <chapter>keyword search over xml data</chapter>
  </book>
  <book year="2010">
    <title>top k query processing</title>
    <author>bob</author>
    <chapter>ranked keyword search in databases</chapter>
  </book>
  <article>
    <title>supporting top k keyword search in xml databases</title>
    <author>alice</author>
    <author>bob</author>
  </article>
</bib>)";

const obs::QueryTrace::Span* FindSpan(const obs::QueryTrace& trace,
                                      const std::string& name) {
  for (const auto& span : trace.spans()) {
    if (span.name == name) return &span;
  }
  return nullptr;
}

std::string LabelOr(const obs::QueryTrace::Span& span,
                    const std::string& name, const std::string& fallback) {
  for (const auto& [key, value] : span.labels) {
    if (key == name) return value;
  }
  return fallback;
}

TEST(ExplainTest, CompleteQueryGoldenShape) {
  XmlTree tree = ParseXmlStringOrDie(kFixtureXml);
  Engine engine(tree);

  ExplainResult explained = engine.Explain({"xml", "data"});

  // Answers match the plain search path exactly.
  std::vector<QueryHit> want = engine.Search({"xml", "data"});
  ASSERT_EQ(explained.hits.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(explained.hits[i].node, want[i].node);
    EXPECT_EQ(explained.hits[i].score, want[i].score);
  }
  EXPECT_GT(explained.join_stats.levels_processed, 0u);

  // Golden span sequence: creation order is execution order.
  const auto& spans = explained.trace.spans();
  ASSERT_GE(spans.size(), 5u);
  EXPECT_EQ(spans[0].name, "query");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].name, "tokenize");
  EXPECT_EQ(spans[2].name, "term_lookup");
  EXPECT_EQ(spans[3].name, "join_search");
  EXPECT_EQ(spans.back().name, "materialize");
  for (size_t i = 1; i < spans.size(); ++i) {
    if (spans[i].name.rfind("level_", 0) == 0) {
      EXPECT_EQ(spans[i].parent, 3) << "level spans nest under join_search";
    }
  }

  const auto* root = FindSpan(explained.trace, "query");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(LabelOr(*root, "semantics", ""), "elca");
  EXPECT_EQ(LabelOr(*root, "mode", ""), "complete");
  EXPECT_EQ(explained.trace.StatOr(0, "hits"),
            static_cast<double>(want.size()));

  const auto* join = FindSpan(explained.trace, "join_search");
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(LabelOr(*join, "termination", ""), "complete");
  EXPECT_EQ(explained.trace.StatOr(3, "results"),
            static_cast<double>(explained.join_stats.results));
}

TEST(ExplainTest, TopKQueryHasColumnSpans) {
  // Correlated records: the star join proves the top 2 inside its budget,
  // so the topk_search span names it and carries its column spans.
  XmlTree tree = testing::MakeCorrelatedRecords(20000);
  Engine engine(tree);

  ExplainResult explained = engine.Explain({"xml", "data"}, 2);
  std::vector<QueryHit> want = engine.SearchTopK({"xml", "data"}, 2);
  ASSERT_EQ(explained.hits.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(explained.hits[i].node, want[i].node);
  }

  const auto* root = FindSpan(explained.trace, "query");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(LabelOr(*root, "mode", ""), "topk");
  const auto* topk = FindSpan(explained.trace, "topk_search");
  ASSERT_NE(topk, nullptr);
  EXPECT_EQ(LabelOr(*topk, "strategy", ""), "star_join");
  EXPECT_EQ(LabelOr(*topk, "termination", ""), "k_reached");
  EXPECT_EQ(FindSpan(explained.trace, "join_search"), nullptr);

  // Every processed column shows up as a column_L<level> span with a mode
  // label: a star join, or a skip on disjoint value ranges.
  size_t columns = 0;
  for (const auto& span : explained.trace.spans()) {
    if (span.name.rfind("column_L", 0) == 0) {
      ++columns;
      std::string mode = LabelOr(span, "mode", "");
      EXPECT_TRUE(mode == "star_join" || mode == "value_skip") << mode;
    }
  }
  EXPECT_GT(columns, 0u);
}

TEST(ExplainTest, FallbackNestsJoinSearchUnderTopK) {
  // The fixture's lists are far too short for a star-join budget: the
  // query falls back, and the complete join's spans nest under topk_search.
  XmlTree tree = ParseXmlStringOrDie(kFixtureXml);
  Engine engine(tree);
  ExplainResult explained = engine.Explain({"keyword", "search"}, 2);
  std::vector<QueryHit> want = engine.SearchTopK({"keyword", "search"}, 2);
  ASSERT_EQ(explained.hits.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(explained.hits[i].node, want[i].node);
    EXPECT_EQ(explained.hits[i].score, want[i].score);
  }

  const auto& spans = explained.trace.spans();
  int topk = -1, join = -1;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "topk_search") topk = static_cast<int>(i);
    if (spans[i].name == "join_search") join = static_cast<int>(i);
  }
  ASSERT_GE(topk, 0);
  ASSERT_GE(join, 0);
  EXPECT_EQ(LabelOr(spans[topk], "strategy", ""), "complete_fallback");
  EXPECT_EQ(LabelOr(spans[topk], "termination", ""), "complete");
  EXPECT_EQ(explained.trace.StatOr(topk, "budget", -1.0), 0.0);
  EXPECT_EQ(spans[join].parent, topk);
  size_t levels = 0;
  for (const auto& span : spans) {
    if (span.name.rfind("level_", 0) == 0) {
      ++levels;
      EXPECT_EQ(span.parent, join) << "level spans nest under join_search";
    }
  }
  EXPECT_GT(levels, 0u);
}

TEST(ExplainTest, MissingTermIsLabeled) {
  XmlTree tree = ParseXmlStringOrDie(kFixtureXml);
  Engine engine(tree);
  ExplainResult explained = engine.Explain({"nosuchterm"});
  EXPECT_TRUE(explained.hits.empty());
  const auto* join = FindSpan(explained.trace, "join_search");
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(LabelOr(*join, "termination", ""), "missing_term");
}

TEST(ExplainTest, RenderAndJsonCarryTheTree) {
  XmlTree tree = ParseXmlStringOrDie(kFixtureXml);
  Engine engine(tree);
  ExplainResult explained = engine.Explain({"xml", "search"}, 3);
  std::string rendered = explained.trace.Render();
  EXPECT_NE(rendered.find("query"), std::string::npos);
  EXPECT_NE(rendered.find("topk_search"), std::string::npos);
  EXPECT_NE(rendered.find("strategy"), std::string::npos);
  std::string json = explained.trace.ToJson();
  EXPECT_NE(json.find("\"name\":\"query\""), std::string::npos);
}

TEST(ExplainTest, CoverageIsHighOnARealQuery) {
  // A corpus big enough that the search dominates the query wall time; the
  // span tree must account for nearly all of it (the >= 90% acceptance bar
  // is checked on the profile tool's corpus; this guards the mechanism).
  XmlTree tree = testing::MakeRandomTree(77, 4000, 4, 7,
                                         {"alpha", "beta", "gamma"}, 0.2);
  Engine engine(tree);
  ExplainResult explained = engine.Explain({"alpha", "beta"});
  EXPECT_GT(explained.trace.ChildCoverage(), 0.75);
}

TEST(ExplainTest, QueriesThroughExplainAreCountedInRegistry) {
  XmlTree tree = ParseXmlStringOrDie(kFixtureXml);
  Engine engine(tree);
  obs::Counter& queries =
      obs::MetricsRegistry::Global().GetCounter("engine.queries");
  uint64_t before = queries.value();
  engine.Explain({"xml"});
  engine.Search({"xml"});
  EXPECT_EQ(queries.value(), before + 2);
}

}  // namespace
}  // namespace xtopk
