// QueryTrace / ScopedSpan: span nesting must follow call order, stats and
// labels must attach to the right span, and a null trace must cost nothing
// (pinned by the obs.spans_opened registry counter).

#include <gtest/gtest.h>

#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace xtopk {
namespace obs {
namespace {

TEST(TraceTest, SpansNestByCallOrder) {
  QueryTrace trace;
  int root = trace.OpenSpan("query");
  int child = trace.OpenSpan("tokenize");
  trace.CloseSpan(child);
  int second = trace.OpenSpan("join");
  int grandchild = trace.OpenSpan("level_3");
  trace.CloseSpan(grandchild);
  trace.CloseSpan(second);
  trace.CloseSpan(root);

  ASSERT_EQ(trace.spans().size(), 4u);
  EXPECT_EQ(trace.spans()[root].parent, -1);
  EXPECT_EQ(trace.spans()[child].parent, root);
  EXPECT_EQ(trace.spans()[second].parent, root);
  EXPECT_EQ(trace.spans()[grandchild].parent, second);
  for (const auto& span : trace.spans()) {
    EXPECT_FALSE(span.open);
    EXPECT_GE(span.duration_us, 0.0);
  }
}

TEST(TraceTest, ClosedSpanNestsUnderOpenSpanWithItsOwnTiming) {
  QueryTrace trace;
  int level = trace.OpenSpan("level_2");
  double start = trace.NowMicros();
  int step = trace.AddClosedSpan("join_step", start, 1.5);
  trace.AddStat(step, "actual_out", 3);
  int after = trace.OpenSpan("after");  // still under level_2
  trace.CloseSpan(after);
  trace.CloseSpan(level);

  const auto& spans = trace.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[step].parent, level);
  EXPECT_FALSE(spans[step].open);
  EXPECT_EQ(spans[step].start_us, start);
  EXPECT_EQ(spans[step].duration_us, 1.5);
  EXPECT_EQ(trace.StatOr(step, "actual_out"), 3.0);
  EXPECT_EQ(spans[after].parent, level);
}

TEST(TraceTest, DisabledTracingOpensNoSpans) {
  Counter& opened =
      MetricsRegistry::Global().GetCounter("obs.spans_opened");
  uint64_t before = opened.value();
  {
    // The exact pattern instrumented code uses: null trace, RAII guard.
    ScopedSpan span(nullptr, "query");
    span.Stat("rows", 123);
    span.Label("mode", "star_join");
    EXPECT_FALSE(span.enabled());
    ScopedSpan child(nullptr, "level_1");
    child.Stat("candidates", 7);
  }
  EXPECT_EQ(opened.value(), before);  // zero spans -> zero tracing work
}

TEST(TraceTest, ScopedSpanRecordsOnRealTrace) {
  QueryTrace trace;
  {
    ScopedSpan root(&trace, "query");
    root.Stat("k", 10);
    {
      ScopedSpan level(&trace, "level_2");
      level.Stat("candidates", 5);
      level.Stat("candidates", 3);  // accumulates
      level.Label("mode", "complete_join");
    }
  }
  ASSERT_EQ(trace.spans().size(), 2u);
  EXPECT_EQ(trace.StatOr(0, "k"), 10.0);
  EXPECT_EQ(trace.StatOr(1, "candidates"), 8.0);
  EXPECT_EQ(trace.spans()[1].labels[0].second, "complete_join");
  EXPECT_EQ(trace.StatTotal("candidates"), 8.0);
  EXPECT_GT(trace.total_us(), 0.0);
}

TEST(TraceTest, CloseIsIdempotentAndEarlyCloseWorks) {
  QueryTrace trace;
  ScopedSpan span(&trace, "query");
  span.Close();
  span.Close();  // no-op
  EXPECT_FALSE(span.enabled());
  ASSERT_EQ(trace.spans().size(), 1u);
  EXPECT_FALSE(trace.spans()[0].open);
}

TEST(TraceTest, OutOfOrderCloseClosesAbandonedChildren) {
  QueryTrace trace;
  int root = trace.OpenSpan("query");
  trace.OpenSpan("child");  // never closed explicitly
  trace.CloseSpan(root);
  for (const auto& span : trace.spans()) EXPECT_FALSE(span.open);
}

TEST(TraceTest, ChildCoverageReflectsChildDurations) {
  QueryTrace trace;
  int root = trace.OpenSpan("query");
  int child = trace.OpenSpan("work");
  // Burn a little time inside the child so it dominates the root.
  volatile double sink = 0;
  for (int i = 0; i < 200000; ++i) sink = sink + i * 0.5;
  trace.CloseSpan(child);
  trace.CloseSpan(root);
  EXPECT_GT(trace.ChildCoverage(), 0.5);
  EXPECT_LE(trace.ChildCoverage(), 1.0);
}

TEST(TraceTest, RenderAndJson) {
  QueryTrace trace;
  {
    ScopedSpan root(&trace, "query");
    root.Label("semantics", "elca");
    {
      ScopedSpan child(&trace, "level_1");
      child.Stat("results", 2);
    }
  }
  std::string rendered = trace.Render();
  EXPECT_NE(rendered.find("query"), std::string::npos);
  EXPECT_NE(rendered.find("└─ level_1"), std::string::npos);
  EXPECT_NE(rendered.find("[semantics=elca]"), std::string::npos);
  EXPECT_NE(rendered.find("results=2"), std::string::npos);

  std::string json = trace.ToJson();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"name\":\"query\""), std::string::npos);
  EXPECT_NE(json.find("\"children\":[{\"name\":\"level_1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"results\":2.0000"), std::string::npos);
}

TEST(TraceTest, EmptyTrace) {
  QueryTrace trace;
  EXPECT_TRUE(trace.empty());
  EXPECT_EQ(trace.total_us(), 0.0);
  EXPECT_EQ(trace.ChildCoverage(), 0.0);
  EXPECT_EQ(trace.ToJson(), "[]");
  EXPECT_EQ(trace.Render(), "");
}

}  // namespace
}  // namespace obs
}  // namespace xtopk
