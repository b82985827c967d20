#include <gtest/gtest.h>

#include "core/join_search.h"
#include "index/index_builder.h"
#include "testing/corpus.h"
#include "workload/dblp_gen.h"

namespace xtopk {
namespace {

TEST(JoinTraceTest, TraceIsConsistentWithStatsAndResults) {
  XmlTree tree = testing::MakeSmallCorpus();
  IndexBuilder builder(tree);
  JDeweyIndex index = builder.BuildJDeweyIndex();
  JoinSearch search(index);
  std::vector<LevelTrace> trace;
  auto results = search.SearchWithTrace({"xml", "data"}, &trace);

  const JoinSearchStats& stats = search.stats();
  ASSERT_EQ(trace.size(), stats.levels_processed);
  // Levels descend from the start level to 1.
  for (size_t i = 1; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i - 1].level, trace[i].level + 1);
  }
  uint64_t candidates = 0, result_count = 0, erased = 0, steps = 0;
  for (const LevelTrace& level : trace) {
    candidates += level.candidates;
    result_count += level.results;
    erased += level.rows_erased;
    steps += level.steps.size();
    // k=2 keywords -> exactly one join step per level.
    EXPECT_EQ(level.steps.size(), 1u);
  }
  EXPECT_EQ(candidates, stats.candidates);
  EXPECT_EQ(result_count, stats.results);
  EXPECT_EQ(result_count, results.size());
  EXPECT_EQ(erased, stats.rows_erased);
  EXPECT_EQ(steps, stats.join_ops.merge_joins + stats.join_ops.index_joins +
                       stats.join_ops.gallop_joins);
}

TEST(JoinTraceTest, DynamicDecisionsVisiblePerLevel) {
  // Short + long keyword: at deep levels the short intermediate should
  // pick the index join against the long column.
  DblpGenOptions gen;
  gen.planted = {{"needle", 20, "", 0.0}, {"hay", 8000, "", 0.0}};
  DblpCorpus corpus = GenerateDblp(gen);
  IndexBuilder builder(corpus.tree);
  JDeweyIndex index = builder.BuildJDeweyIndex();
  JoinSearch search(index);
  std::vector<LevelTrace> trace;
  search.SearchWithTrace({"needle", "hay"}, &trace);
  ASSERT_FALSE(trace.empty());
  bool saw_index_join = false;
  for (const LevelTrace& level : trace) {
    for (const JoinStepTrace& step : level.steps) {
      if (step.algo == JoinAlgo::kIndex) saw_index_join = true;
      // The joined column is always the long keyword's (query position 1,
      // since "needle" is shorter and seeds the pipeline).
      EXPECT_EQ(step.query_position, 1u);
      EXPECT_LE(step.output_matches, step.input_runs);
    }
  }
  EXPECT_TRUE(saw_index_join);
}

TEST(JoinTraceTest, ContextAwareSelectionAcrossLevels) {
  // The paper's §III-C anecdote, reproduced: {topk, rewriting, xml} over
  // DBLP. Few papers contain both rare terms, but most years/conferences
  // do — so the same query's second join should probe (index join) at the
  // paper level where the intermediate is tiny, and switch to the merge
  // join at the year/conference levels where "keyword correlation is a
  // concept bound to specific contexts".
  DblpGenOptions gen;
  gen.num_conferences = 50;
  gen.years_per_conference = 10;
  gen.papers_per_year = 100;
  gen.planted = {
      {"topkterm", 500, "", 0.0},
      {"rewriting", 800, "", 0.0},
      {"xmlterm", 10000, "", 0.0},
  };
  DblpCorpus corpus = GenerateDblp(gen);
  IndexBuilder builder(corpus.tree);
  JDeweyIndex index = builder.BuildJDeweyIndex();
  JoinSearch search(index);
  std::vector<LevelTrace> trace;
  search.SearchWithTrace({"topkterm", "rewriting", "xmlterm"}, &trace);
  ASSERT_GE(trace.size(), 4u);

  // trace is bottom-up: title level first, root last. The second step of
  // each level joins in the long xml column.
  bool deep_used_index = false, shallow_used_merge = false;
  for (const LevelTrace& level : trace) {
    ASSERT_EQ(level.steps.size(), 2u);
    const JoinStepTrace& second = level.steps[1];
    if (level.level >= 4 && second.algo == JoinAlgo::kIndex) {
      deep_used_index = true;
    }
    if (level.level <= 3 && second.algo != JoinAlgo::kIndex) {
      shallow_used_merge = true;
    }
  }
  EXPECT_TRUE(deep_used_index)
      << "expected the index join where few papers hold both rare terms";
  EXPECT_TRUE(shallow_used_merge)
      << "expected the merge join where most years/conferences hold both";
}

TEST(JoinTraceTest, SearchAndSearchWithTraceAgree) {
  XmlTree tree =
      testing::MakeRandomTree(88, 400, 4, 7, {"alpha", "beta"}, 0.2);
  IndexBuildOptions build_options;
  build_options.index_tag_names = false;
  IndexBuilder builder(tree, build_options);
  JDeweyIndex index = builder.BuildJDeweyIndex();
  JoinSearch a(index), b(index);
  std::vector<LevelTrace> trace;
  auto plain = a.Search({"alpha", "beta"});
  auto traced = b.SearchWithTrace({"alpha", "beta"}, &trace);
  ASSERT_EQ(plain.size(), traced.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].node, traced[i].node);
    EXPECT_EQ(plain[i].score, traced[i].score);
  }
}

TEST(JoinTraceTest, StepSpansTimeTheJoinSteps) {
  // Three keywords: two join steps per level. Each step span is timed
  // around its own join, so the steps of a level are back to back inside
  // the level span.
  XmlTree tree = testing::MakeRandomTree(
      89, 3000, 5, 7, {"alpha", "beta", "gamma"}, 0.3);
  IndexBuildOptions build_options;
  build_options.index_tag_names = false;
  IndexBuilder builder(tree, build_options);
  JDeweyIndex index = builder.BuildJDeweyIndex();
  obs::QueryTrace trace;
  JoinSearchOptions options;
  options.trace = &trace;
  JoinSearch search(index, options);
  search.Search({"alpha", "beta", "gamma"});

  const auto& spans = trace.spans();
  size_t multi_step_levels = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name.rfind("level_", 0) != 0) continue;
    double step_sum = 0.0;
    size_t steps = 0;
    for (const auto& span : spans) {
      if (span.parent != static_cast<int>(i) || span.name != "join_step") {
        continue;
      }
      ++steps;
      EXPECT_FALSE(span.open);
      EXPECT_GT(span.duration_us, 0.0) << spans[i].name;
      EXPECT_GE(span.start_us, spans[i].start_us) << spans[i].name;
      step_sum += span.duration_us;
    }
    if (steps < 2) continue;
    ++multi_step_levels;
    EXPECT_LE(step_sum, spans[i].duration_us) << spans[i].name;
  }
  EXPECT_GT(multi_step_levels, 0u);
}

}  // namespace
}  // namespace xtopk
