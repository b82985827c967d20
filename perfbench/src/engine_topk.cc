// engine_topk: the paper's Fig. 9/10 regimes on the in-memory Engine.
//
// One thread runs a closed loop over a fixed, shuffled sequence of calls:
// every query of the pool once as SearchTopK(q, 10) and once as
// Search(q). One untimed warm-up pass records each answer's fingerprint;
// timed passes repeat the whole sequence, one pass per 4 s of --seconds,
// and every answer must reproduce its warm-up fingerprint. Latencies are
// percentiles over the calls of each call's fastest pass; qps is the best
// pass's (ReportFastestRepeats).
//
// The traced run additionally replays each call's layers through their
// public entry points (Normalize, PlanJoin, TopKSearch, JoinSearch) and
// records them as spans under the engine call.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common.h"
#include "core/join_planner.h"
#include "core/join_search.h"
#include "core/topk_search.h"
#include "workload/query_gen.h"

namespace perfbench {
namespace {

/// Nominal length of one timed pass (698 calls on a 4-vCPU VM): --seconds
/// divided by this sets the number of passes.
constexpr double kPassSeconds = 4.0;

struct Call {
  size_t query = 0;
  bool topk = false;
};

/// The query pool of one seed: the three regimes of the paper's sweeps.
std::vector<Query> MakePool(const xtopk::Engine& engine, uint64_t seed) {
  xtopk::QueryGenerator gen(engine.builder().terms(), seed);
  const xtopk::FrequencyBand low{100, 1000}, high{1000, 20000};
  const xtopk::FrequencyBand equal{3000, 30000};
  std::vector<Query> pool = StratifiedQueries(&gen, 200, 2, low, high, 4, seed);
  for (Query& q : StratifiedQueries(&gen, 100, 2, equal, equal, 4, seed)) {
    pool.push_back(std::move(q));
  }
  for (Query& q : StratifiedQueries(&gen, 50, 3, low, high, 4, seed)) {
    pool.push_back(std::move(q));
  }
  return pool;
}

/// Scores rounded the way ResultFingerprint rounds them.
std::string ScoreKey(double score) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", score);
  return buf;
}

/// Warm-up check: the top-10 answer's scores are the 10 highest scores of
/// the complete answer (which Search returns sorted by score).
bool TopKMatchesComplete(const std::vector<xtopk::QueryHit>& topk,
                         const std::vector<xtopk::QueryHit>& complete) {
  const size_t expect = std::min<size_t>(10, complete.size());
  if (topk.size() != expect) return false;
  std::vector<double> scores;
  for (const auto& hit : topk) scores.push_back(hit.score);
  std::sort(scores.rbegin(), scores.rend());
  for (size_t i = 0; i < expect; ++i) {
    if (ScoreKey(scores[i]) != ScoreKey(complete[i].score)) return false;
  }
  return true;
}

/// The exact per-pass counters the traced run reports.
struct CoreCounts {
  uint64_t topk_queries = 0, topk_entries = 0, topk_results = 0;
  uint64_t columns = 0, star_columns = 0;
  uint64_t join_queries = 0, join_candidates = 0, join_results = 0;
  uint64_t erasure_touches = 0;
  bool operator==(const CoreCounts&) const = default;
};

/// Layer samples of the traced run.
struct LayerSamples {
  std::vector<double> normalize, plan, topk_search, join_search, materialize;
};

/// Replays one call's layers and records them under `parent`. Returns the
/// time the replayed normalize + search took, so the caller can derive the
/// engine's own (materialize) time.
double ReplayLayers(const xtopk::Engine& engine, const Query& query, bool topk,
                    int64_t parent, uint64_t qid, SpanRecorder* spans,
                    LayerSamples* samples, CoreCounts* counts) {
  double t0 = NowUs();
  const Query normalized = engine.Normalize(query);
  double t1 = NowUs();
  spans->Add("core.normalize", t0, t1, parent, qid);
  samples->normalize.push_back(t1 - t0);
  double layered = t1 - t0;

  // Uncached planning over the same inputs JoinSearch would plan from.
  // The engine caches plans, so this is a root span, not part of the call.
  std::vector<xtopk::TermPlanInput> inputs;
  uint32_t start_level = UINT32_MAX;
  for (const std::string& term : normalized) {
    const xtopk::JDeweyList* list = engine.jdewey_index().GetList(term);
    if (list == nullptr) continue;
    inputs.push_back({term, list->num_rows(),
                      engine.jdewey_index().StatsOf(term)});
    start_level = std::min(start_level, list->max_length);
  }
  if (inputs.size() == normalized.size() && !inputs.empty()) {
    t0 = NowUs();
    xtopk::JoinPlan plan =
        xtopk::PlanJoin(inputs, start_level, xtopk::PlannerOptions{});
    t1 = NowUs();
    spans->Add("core.plan", t0, t1, -1, qid);
    samples->plan.push_back(t1 - t0);
  }

  if (topk) {
    xtopk::TopKSearchOptions options;
    options.k = 10;
    options.plan_cache = &engine.plan_cache();
    t0 = NowUs();
    xtopk::TopKSearch search(engine.topk_index(), options);
    std::vector<xtopk::SearchResult> found = search.Search(normalized);
    t1 = NowUs();
    spans->Add("core.topk_search", t0, t1, parent, qid);
    samples->topk_search.push_back(t1 - t0);
    const xtopk::TopKSearchStats& st = search.stats();
    ++counts->topk_queries;
    counts->topk_entries += st.entries_read;
    counts->topk_results += found.size();
    counts->columns += st.columns_processed;
    counts->star_columns += st.columns_star_join;
  } else {
    xtopk::JoinSearchOptions options;
    options.plan_cache = &engine.plan_cache();
    t0 = NowUs();
    xtopk::JoinSearch search(engine.jdewey_index(), options);
    std::vector<xtopk::SearchResult> found = search.Search(normalized);
    t1 = NowUs();
    spans->Add("core.join_search", t0, t1, parent, qid);
    samples->join_search.push_back(t1 - t0);
    const xtopk::JoinSearchStats& st = search.stats();
    ++counts->join_queries;
    counts->join_candidates += st.candidates;
    counts->join_results += st.results;
    counts->erasure_touches += st.erasure_touches;
  }
  return layered + (t1 - t0);
}

}  // namespace

RunResult RunEngineTopK(const RunConfig& config) {
  RunResult result;
  std::unique_ptr<xtopk::XmlTree> tree = DefaultCorpus();
  double build_s = 0.0;
  std::unique_ptr<xtopk::Engine> engine = BuildEngine(*tree, &build_s);
  const std::vector<Query> pool = MakePool(*engine, config.seed);

  std::vector<Call> calls;
  for (size_t i = 0; i < pool.size(); ++i) {
    calls.push_back({i, true});
    calls.push_back({i, false});
  }
  Shuffle(&calls, config.seed);
  std::fprintf(stderr,
               "perfbench: engine_topk: %zu nodes, %zu queries, %zu calls "
               "per pass, build %.3fs\n",
               tree->node_count(), pool.size(), calls.size(), build_s);

  auto run = [&](const Call& call) {
    return call.topk ? engine->SearchTopK(pool[call.query], 10)
                     : engine->Search(pool[call.query]);
  };

  // Warm-up: fingerprints, and top-10 against the complete answer.
  std::vector<std::string> expected(calls.size());
  {
    std::vector<std::vector<xtopk::QueryHit>> topk(pool.size()),
        complete(pool.size());
    for (size_t i = 0; i < calls.size(); ++i) {
      std::vector<xtopk::QueryHit> hits = run(calls[i]);
      expected[i] = xtopk::ResultFingerprint(hits);
      (calls[i].topk ? topk : complete)[calls[i].query] = std::move(hits);
    }
    for (size_t q = 0; q < pool.size(); ++q) {
      const bool ok = TopKMatchesComplete(topk[q], complete[q]);
      if (!ok) {
        std::fprintf(stderr, "perfbench: top-10 of query %zu disagrees with "
                     "its complete answer\n", q);
      }
      result.Count(ok);
    }
  }

  // Whole passes only. Their number depends on --seconds alone, not on
  // the pace measured here, so machine load cannot change how many repeats
  // the fastest repeat is taken over. A traced run needs 1000 top-k samples
  // for its p99.
  size_t passes = std::max<size_t>(
      2, static_cast<size_t>(std::lround(config.seconds / kPassSeconds)));
  if (config.trace) {
    const size_t topk_per_pass = calls.size() / 2;
    passes = std::max(passes, (1000 + topk_per_pass - 1) / topk_per_pass);
  }

  SpanRecorder spans(config.trace);
  LayerSamples layers;
  std::vector<double> topk_us, complete_us;
  std::vector<double> fastest_us(calls.size(),
                                 std::numeric_limits<double>::infinity());
  std::vector<CoreCounts> pass_counts;
  std::vector<WindowFigures> pass_figures;
  double e2e_us = 0.0;
  const double phase_start = NowUs();
  uint64_t qid = 0;
  for (size_t pass = 0; pass < passes; ++pass) {
    CoreCounts counts;
    const double pass_e2e_us = e2e_us;
    for (size_t i = 0; i < calls.size(); ++i, ++qid) {
      const Call& call = calls[i];
      const double t0 = NowUs();
      std::vector<xtopk::QueryHit> hits = run(call);
      const double t1 = NowUs();
      (call.topk ? topk_us : complete_us).push_back(t1 - t0);
      e2e_us += t1 - t0;
      fastest_us[i] = std::min(fastest_us[i], t1 - t0);
      const bool ok = xtopk::ResultFingerprint(hits) == expected[i];
      if (!ok) {
        std::fprintf(stderr, "perfbench: call %zu answered differently than "
                     "in warm-up\n", i);
      }
      result.Count(ok);
      if (config.trace) {
        int64_t parent = spans.Add(call.topk ? "e2e.topk" : "e2e.complete",
                                   t0, t1, -1, qid);
        double layered = ReplayLayers(*engine, pool[call.query], call.topk,
                                      parent, qid, &spans, &layers, &counts);
        layers.materialize.push_back((t1 - t0) - layered);
      }
    }
    pass_counts.push_back(counts);
    // One closed-loop thread: queries over the time spent answering them.
    const size_t per_pass = pool.size();
    pass_figures.push_back(FiguresOf(
        {topk_us.end() - per_pass, topk_us.end()},
        {complete_us.end() - per_pass, complete_us.end()},
        static_cast<double>(calls.size()) / ((e2e_us - pass_e2e_us) / 1e6)));
    const WindowFigures& f = pass_figures.back();
    std::fprintf(stderr, "perfbench: pass %zu/%zu at %.1fs: top-k p50 %.0fus "
                 "p90 %.0fus, complete p50 %.0fus, %.1f qps\n",
                 pass_counts.size(), passes, (NowUs() - phase_start) / 1e6,
                 f.topk_p50_us, f.topk_p90_us, f.complete_p50_us, f.qps);
  }
  const double phase_us = NowUs() - phase_start;
  const double rss = ResidentMiB();

  std::vector<double> topk_fastest_us, complete_fastest_us;
  for (size_t i = 0; i < calls.size(); ++i) {
    (calls[i].topk ? topk_fastest_us : complete_fastest_us)
        .push_back(fastest_us[i]);
  }
  ReportFastestRepeats(pass_figures, topk_fastest_us, complete_fastest_us,
                       &result);
  result.EndToEnd("setup_s", build_s, "s");
  result.EndToEnd("rss_mb", rss, "MiB");

  if (config.trace) {
    for (const CoreCounts& c : pass_counts) {
      if (!(c == pass_counts.front())) {
        std::fprintf(stderr, "perfbench: core counters differ between passes\n");
        result.broken = true;
      }
    }
    const CoreCounts& c = pass_counts.front();
    result.Layer("index.build_s", build_s, "s");
    result.Layer("core.normalize_us", RequirePercentile(layers.normalize, 0.5, "normalize"), "us");
    result.Layer("core.plan_us", RequirePercentile(layers.plan, 0.5, "plan"), "us");
    result.Layer("core.topk_search_p50_us", RequirePercentile(layers.topk_search, 0.5, "topk_search"), "us");
    result.Layer("core.topk_search_p99_us", RequirePercentile(layers.topk_search, 0.99, "topk_search"), "us");
    result.Layer("core.join_search_p50_us", RequirePercentile(layers.join_search, 0.5, "join_search"), "us");
    result.Layer("core.join_search_p99_us", RequirePercentile(layers.join_search, 0.99, "join_search"), "us");
    result.Layer("core.materialize_us", RequirePercentile(layers.materialize, 0.5, "materialize"), "us");
    result.Layer("core.topk_entries_read",
                 Ratio(static_cast<double>(c.topk_entries), static_cast<double>(c.topk_queries)), "count");
    result.Layer("core.topk_results_per_entry",
                 Ratio(static_cast<double>(c.topk_results), static_cast<double>(c.topk_entries)), "ratio");
    result.Layer("core.topk_star_column_share",
                 Ratio(static_cast<double>(c.star_columns), static_cast<double>(c.columns)), "ratio");
    result.Layer("core.join_candidates_per_result",
                 Ratio(static_cast<double>(c.join_candidates), static_cast<double>(c.join_results)), "ratio");
    result.Layer("core.erasure_touches",
                 Ratio(static_cast<double>(c.erasure_touches), static_cast<double>(c.join_queries)), "count");
    result.Layer("trace.overhead_pct",
                 TraceOverheadPct(spans.spans().size(), phase_us), "%");
    FinishTrace(config, "engine_topk", spans, e2e_us, &result);
    // The engine's own time beside normalize and search: materialize.
    double materialize_sum = 0.0;
    for (double v : layers.materialize) materialize_sum += v;
    result.Layer("share.core.materialize", Ratio(materialize_sum, e2e_us), "ratio");
  }
  return result;
}

}  // namespace perfbench
