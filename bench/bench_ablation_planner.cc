// Ablation A7: cost-based join planning vs the observed-size heuristic.
// The planner's edge is positional skew the sizes cannot see: when the two
// SHORTEST lists are correlated (planted into the same contiguous document
// region) and a longer list is spread uniformly, shortest-first joins the
// correlated pair and drags a large intermediate through every later step.
// The per-level histograms price that pair near its true (large) overlap
// and the uniform pair near its true (tiny) one, so the DP folds the
// uniform term second and collapses the intermediate immediately.
//
// On uniform equal-frequency workloads every order costs the same; the
// planner must match the heuristic there (its plan degrades to
// shortest-first by construction). Both claims are gated in CI.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/join_search.h"
#include "core/plan_cache.h"
#include "util/rng.h"
#include "workload/vocab.h"

namespace {

using xtopk::bench::BenchJson;
using xtopk::bench::HitRate;
using xtopk::bench::TimeOnceMs;

constexpr size_t kSkewTriples = 4;
constexpr int kRepeatsPerQuery = 20;

/// DBLP corpus with hand-planted positional skew. Each skew group i:
///   ska<i>, skb<i>, skb2<i>, skb3<i> — 7000 titles each, 97% co-located,
///                     confined to one contiguous 8000-title region i
///   skc<i>          — 8400 titles drawn from the WHOLE corpus, plus 400
///                     planted onto ska<i> titles so three-way matches
///                     exist beyond the uniform background
///   skd<i>          — 9000 titles, corpus-wide (the 5-keyword tail)
/// plus uniform pools un0..un7 (2000 titles each, corpus-wide) for the
/// equal-frequency control workload. Sizes make the CORRELATED terms the
/// shortest lists, so the size heuristic opens with them and carries a
/// ~6800-value intermediate into the skc fold; the histograms price the
/// region terms near their true (dense-range) overlap and open with the
/// cross-region pair (~1500 values) instead, probing the other region
/// terms from a collapsed left side.
xtopk::bench::BenchCorpus BuildPlannerCorpus() {
  xtopk::DblpGenOptions gen;
  gen.num_conferences = 50;
  gen.years_per_conference = 10;
  gen.papers_per_year = 100 * xtopk::bench::BenchScale();  // ~50k papers
  gen.seed = 7321;
  for (uint32_t i = 0; i < 8; ++i) {
    gen.planted.push_back({"un" + std::to_string(i), 2000, "", 0.0});
  }
  xtopk::DblpCorpus dblp = xtopk::GenerateDblp(gen);

  xtopk::Rng rng(4242);
  size_t region = 8000;
  for (size_t i = 0; i < kSkewTriples; ++i) {
    size_t lo = i * region;
    size_t hi = std::min(lo + region, dblp.titles.size());
    std::vector<xtopk::NodeId> local(dblp.titles.begin() + lo,
                                     dblp.titles.begin() + hi);
    std::string suffix = std::to_string(i);
    xtopk::PlantTerms(&dblp.tree, local,
                      {{"ska" + suffix, 7000, "", 0.0},
                       {"skb" + suffix, 7000, "ska" + suffix, 0.97},
                       {"skb2" + suffix, 7000, "ska" + suffix, 0.97},
                       {"skb3" + suffix, 7000, "ska" + suffix, 0.97},
                       {"skc" + suffix, 400, "ska" + suffix, 1.0}},
                      &rng);
    xtopk::PlantTerms(&dblp.tree, dblp.titles,
                      {{"skc" + suffix, 8400, "", 0.0},
                       {"skd" + suffix, 9000, "", 0.0}},
                      &rng);
  }

  xtopk::bench::BenchCorpus corpus;
  corpus.tree = std::make_unique<xtopk::XmlTree>(std::move(dblp.tree));
  std::fprintf(stderr, "[bench] planner corpus: %zu nodes\n",
               corpus.tree->node_count());
  corpus.builder = std::make_unique<xtopk::IndexBuilder>(*corpus.tree);
  return corpus;
}

struct WorkloadResult {
  double planner_ms = 0;
  double heuristic_ms = 0;
  double cache_hit_rate = 0;
  std::vector<double> rel_errors;  ///< |est-actual|/max(actual,1) per step
};

/// Times each query under both modes (kRepeatsPerQuery timed runs each,
/// shared plan cache on the planner side) and collects the planner's
/// estimated-vs-actual error samples from EXPLAIN traces.
WorkloadResult RunWorkload(const xtopk::JDeweyIndex& jindex,
                           const std::vector<std::vector<std::string>>& queries) {
  WorkloadResult out;
  xtopk::PlanCache cache;
  for (const auto& query : queries) {
    xtopk::JoinSearchOptions planned_options;
    planned_options.compute_scores = false;
    planned_options.plan_cache = &cache;
    xtopk::JoinSearch planned(jindex, planned_options);

    xtopk::JoinSearchOptions heuristic_options;
    heuristic_options.compute_scores = false;
    heuristic_options.use_planner = false;
    xtopk::JoinSearch heuristic(jindex, heuristic_options);

    for (int r = 0; r < kRepeatsPerQuery; ++r) {
      out.planner_ms += TimeOnceMs([&] { planned.Search(query); });
      out.heuristic_ms += TimeOnceMs([&] { heuristic.Search(query); });
    }

    std::vector<xtopk::LevelTrace> trace;
    planned.SearchWithTrace(query, &trace);
    for (const auto& level : trace) {
      for (const auto& step : level.steps) {
        if (step.est_output < 0) continue;
        double actual = static_cast<double>(step.output_matches);
        out.rel_errors.push_back(std::abs(step.est_output - actual) /
                                 std::max(actual, 1.0));
      }
    }
  }
  size_t runs = queries.size() * kRepeatsPerQuery;
  out.planner_ms /= runs;
  out.heuristic_ms /= runs;
  out.cache_hit_rate = HitRate(cache.hits(), cache.misses());
  return out;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t i = static_cast<size_t>(q * (v.size() - 1));
  return v[i];
}

void Report(const char* workload, const WorkloadResult& r) {
  double speedup = r.planner_ms > 0 ? r.heuristic_ms / r.planner_ms : 1.0;
  std::printf("%-10s planner %8.3f ms   heuristic %8.3f ms   speedup %5.2fx"
              "   cache %4.0f%%   est-err p50/p95 %.2f/%.2f\n",
              workload, r.planner_ms, r.heuristic_ms, speedup,
              100.0 * r.cache_hit_rate, Quantile(r.rel_errors, 0.5),
              Quantile(r.rel_errors, 0.95));
  BenchJson json("ablation_planner");
  json.Field("workload", std::string(workload))
      .Field("planner_ms", r.planner_ms)
      .Field("heuristic_ms", r.heuristic_ms)
      .Field("speedup", speedup)
      .Field("cache_hit_rate", r.cache_hit_rate)
      .Field("est_err_p50", Quantile(r.rel_errors, 0.5))
      .Field("est_err_p95", Quantile(r.rel_errors, 0.95));
  json.Emit();
}

}  // namespace

int main() {
  xtopk::bench::BenchCorpus corpus = BuildPlannerCorpus();
  xtopk::JDeweyIndex jindex = corpus.builder->BuildJDeweyIndex();
  if (!jindex.has_stats()) {
    std::fprintf(stderr, "[bench] index carries no histograms — aborting\n");
    return 1;
  }

  std::printf("=== Ablation A7: cost-based planning vs size heuristic ===\n");

  // Skewed: correlated short terms + uniform long tail, 3-6 keywords. The
  // more keywords ride behind the mispriced opening pair, the more folds
  // the heuristic runs with a fat left side.
  std::vector<std::vector<std::string>> skewed;
  for (size_t i = 0; i < kSkewTriples; ++i) {
    std::string s = std::to_string(i);
    skewed.push_back({"ska" + s, "skb" + s, "skc" + s});
    skewed.push_back({"ska" + s, "skb" + s, "skb2" + s, "skc" + s});
    skewed.push_back({"ska" + s, "skb" + s, "skb2" + s, "skc" + s,
                      "skd" + s});
    skewed.push_back({"ska" + s, "skb" + s, "skb2" + s, "skb3" + s,
                      "skc" + s, "skd" + s});
  }
  Report("skewed", RunWorkload(jindex, skewed));

  // Uniform control: equal-frequency corpus-wide terms — every join order
  // costs the same, so planning must not hurt.
  std::vector<std::vector<std::string>> uniform;
  for (size_t i = 0; i < 8; ++i) {
    uniform.push_back({"un" + std::to_string(i), "un" + std::to_string((i + 1) % 8),
                       "un" + std::to_string((i + 2) % 8)});
  }
  Report("uniform", RunWorkload(jindex, uniform));

  std::printf("\nexpected shape: skewed speedup >= 1.3x, uniform within "
              "noise, cache hit rate >= 90%%\n");
  return 0;
}
