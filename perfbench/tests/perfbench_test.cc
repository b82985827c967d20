// The benchmark's own tests: the percentile rule, the reporting rule, the
// serve decorator's hit/miss split, and the exact counts that must repeat
// under one seed.
// Run with `python3 perfbench/run.py --test` (about two minutes: the
// exact-count tests run two workloads twice each).

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <string>
#include <vector>

#include "common.h"
#include "serve/query_service.h"
#include "serve_probe.h"
#include "stats.h"
#include "workload/dblp_gen.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(PercentileTest, NeedsTenSamplesBeyondThePercentile) {
  EXPECT_FALSE(Percentile(OneTo(19), 0.5).has_value());
  EXPECT_TRUE(Percentile(OneTo(20), 0.5).has_value());
  EXPECT_FALSE(Percentile(OneTo(99), 0.9).has_value());
  EXPECT_TRUE(Percentile(OneTo(100), 0.9).has_value());
  EXPECT_FALSE(Percentile(OneTo(999), 0.99).has_value());
  EXPECT_TRUE(Percentile(OneTo(1000), 0.99).has_value());
  EXPECT_FALSE(Percentile({}, 0.5).has_value());
}

TEST(PercentileTest, NearestRank) {
  EXPECT_EQ(*Percentile(OneTo(100), 0.9), 90.0);
  EXPECT_EQ(*Percentile(OneTo(1000), 0.99), 990.0);
  EXPECT_EQ(*Percentile(OneTo(20), 0.5), 10.0);
  std::vector<double> reversed = OneTo(100);
  std::reverse(reversed.begin(), reversed.end());
  EXPECT_EQ(*Percentile(reversed, 0.9), 90.0);
}

TEST(PercentileTest, Median) {
  EXPECT_EQ(Median({0.65, 0.34, 0.40}), 0.40);
  EXPECT_EQ(Median({1.0, 3.0}), 2.0);
}

TEST(ReportTest, FastestRepeatsGiveLatenciesBestWindowGivesQps) {
  WindowFigures slow{900.0, 990.0, 900.0, 10.0};
  WindowFigures fast{1.0, 2.0, 1.0, 30.0};
  RunResult result;
  ReportFastestRepeats({slow, fast}, OneTo(100), OneTo(20), &result);
  EXPECT_EQ(result.end_to_end["topk_p50_us"].value, 50.0);
  EXPECT_EQ(result.end_to_end["topk_p90_us"].value, 90.0);
  EXPECT_EQ(result.end_to_end["complete_p50_us"].value, 10.0);
  EXPECT_EQ(result.end_to_end["qps"].value, 30.0);
}

class ProbeBackendTest : public ::testing::Test {
 protected:
  ProbeBackendTest() {
    xtopk::DblpGenOptions options;
    options.num_conferences = 4;
    options.years_per_conference = 2;
    options.papers_per_year = 10;
    tree_ = std::make_unique<xtopk::XmlTree>(xtopk::GenerateDblp(options).tree);
    engine_ = std::make_unique<xtopk::Engine>(*tree_);
    backend_ = std::make_unique<xtopk::serve::EngineBackend>(engine_.get());
    probe_ = std::make_unique<ProbeBackend>(backend_.get());
  }

  /// The most frequent term, so the query has answers.
  std::vector<std::string> Query() const {
    const auto& terms = engine_->builder().terms();
    auto best = std::max_element(terms.begin(), terms.end(),
                                 [](const auto& a, const auto& b) {
                                   return a.frequency < b.frequency;
                                 });
    return {best->term};
  }

  std::unique_ptr<xtopk::XmlTree> tree_;
  std::unique_ptr<xtopk::Engine> engine_;
  std::unique_ptr<xtopk::serve::EngineBackend> backend_;
  std::unique_ptr<ProbeBackend> probe_;
};

TEST_F(ProbeBackendTest, SplitsMissesFromHits) {
  xtopk::serve::QueryServiceOptions options;
  options.workers = 0;  // deterministic: Execute drains inline
  xtopk::serve::QueryService service(probe_.get(), options);

  xtopk::serve::QueryRequest request;
  request.k = 10;
  request.keywords = Query();
  request.request_id = 1;  // empty cache: a forced miss
  xtopk::serve::QueryResponse miss = service.Execute(request);
  request.request_id = 2;  // same key again: a forced hit
  xtopk::serve::QueryResponse hit = service.Execute(request);

  ASSERT_EQ(miss.status, xtopk::serve::ResponseStatus::kOk);
  ASSERT_EQ(hit.status, xtopk::serve::ResponseStatus::kOk);
  ASSERT_FALSE(miss.hits.empty());
  std::optional<ProbeBackend::Call> call = probe_->Find(1);
  ASSERT_TRUE(call.has_value());
  EXPECT_LE(call->start_us, call->end_us);
  EXPECT_FALSE(probe_->Find(2).has_value());
  EXPECT_EQ(service.stats().cache_hits, 1u);
  EXPECT_EQ(service.stats().cache_misses, 1u);

  // Both responses and the backend's answer equal the in-process Engine's.
  const uint64_t direct = HitsDigest(engine_->SearchTopK(request.keywords, 10));
  EXPECT_EQ(call->digest, direct);
  EXPECT_EQ(HitsDigest(miss.hits), direct);
  EXPECT_EQ(HitsDigest(hit.hits), direct);
}

TEST(HitsDigestTest, SeesEveryField) {
  std::vector<xtopk::QueryHit> hits(1);
  hits[0].node = 3;
  hits[0].score = 0.5;
  const uint64_t base = HitsDigest(hits);
  auto changed = [&](auto mutate) {
    std::vector<xtopk::QueryHit> copy = hits;
    mutate(copy[0]);
    return HitsDigest(copy) != base;
  };
  EXPECT_TRUE(changed([](xtopk::QueryHit& h) { h.node = 4; }));
  EXPECT_TRUE(changed([](xtopk::QueryHit& h) { h.level = 1; }));
  EXPECT_TRUE(changed([](xtopk::QueryHit& h) { h.score = std::nextafter(0.5, 1.0); }));
  EXPECT_TRUE(changed([](xtopk::QueryHit& h) { h.tag = "t"; }));
  EXPECT_TRUE(changed([](xtopk::QueryHit& h) { h.snippet = "s"; }));
}

RunConfig TracedConfig(uint64_t seed, double seconds) {
  RunConfig config;
  config.seed = seed;
  config.seconds = seconds;
  config.trace = true;
  config.work_dir = "perfbench_test_work";
  mkdir(config.work_dir.c_str(), 0755);
  return config;
}

double LayerValue(const RunResult& result, const std::string& name) {
  auto it = result.layers.find(name);
  EXPECT_NE(it, result.layers.end()) << name;
  return it == result.layers.end() ? -1.0 : it->second.value;
}

TEST(ExactCountsTest, DurableIngestRepeatsUnderOneSeed) {
  // 10 s: two episodes, whose counts must also agree with each other.
  const RunResult a = RunDurableIngest(TracedConfig(7, 10));
  const RunResult b = RunDurableIngest(TracedConfig(7, 10));
  EXPECT_EQ(a.failed, 0u);
  EXPECT_EQ(b.failed, 0u);
  EXPECT_FALSE(a.broken);  // every episode left the same counts
  for (const char* name : {"storage.space_amp", "storage.write_amp",
                           "core.compact_rounds", "index.memtable_refreshes"}) {
    EXPECT_GT(LayerValue(a, name), 0.0) << name;
    EXPECT_EQ(LayerValue(a, name), LayerValue(b, name)) << name;
  }
}

TEST(ExactCountsTest, EngineTopKRepeatsUnderOneSeed) {
  const RunResult a = RunEngineTopK(TracedConfig(7, 1));
  const RunResult b = RunEngineTopK(TracedConfig(7, 1));
  EXPECT_EQ(a.failed, 0u);
  EXPECT_FALSE(a.broken);
  for (const char* name : {"core.topk_entries_read", "core.erasure_touches",
                           "core.topk_star_column_share"}) {
    EXPECT_GT(LayerValue(a, name), 0.0) << name;
    EXPECT_EQ(LayerValue(a, name), LayerValue(b, name)) << name;
  }
}

}  // namespace
}  // namespace perfbench
