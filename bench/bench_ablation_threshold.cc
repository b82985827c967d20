// Ablation A2 (paper §IV-B): the grouped star-join threshold vs the
// classic TA/HRJN bound. Measures, on synthetic ranked relations and on
// the real top-K keyword search, how many tuples each bound reads before
// the top k can be emitted — the paper proves the grouped bound is never
// looser; this quantifies how much it saves.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/topk_search.h"
#include "core/topk_star_join.h"
#include "util/rng.h"

namespace {

std::vector<std::vector<xtopk::RankedTuple>> RandomRelations(
    uint64_t seed, size_t k, size_t ids, double keep_prob) {
  xtopk::Rng rng(seed);
  std::vector<std::vector<xtopk::RankedTuple>> rels(k);
  for (size_t r = 0; r < k; ++r) {
    for (uint64_t id = 0; id < ids; ++id) {
      if (rng.NextBernoulli(keep_prob)) {
        rels[r].push_back({id, rng.NextDouble()});
      }
    }
    std::sort(rels[r].begin(), rels[r].end(),
              [](const xtopk::RankedTuple& a, const xtopk::RankedTuple& b) {
                return a.score > b.score;
              });
  }
  return rels;
}

uint64_t TuplesRead(const std::vector<std::vector<xtopk::RankedTuple>>& rels,
                    size_t k, bool grouped) {
  std::vector<xtopk::VectorRankedSource> sources;
  sources.reserve(rels.size());
  std::vector<xtopk::RankedSource*> ptrs;
  for (const auto& rel : rels) sources.emplace_back(rel);
  for (auto& s : sources) ptrs.push_back(&s);
  xtopk::TopKStarJoin join(ptrs, xtopk::StarJoinOptions{k, grouped});
  join.Run();
  return join.stats().tuples_read;
}

}  // namespace

int main() {
  std::printf("=== Ablation A2: star-join threshold tightness ===\n\n");
  std::printf("synthetic star joins, top-10, avg tuples read over 20 seeds\n");
  std::printf("%-8s %-10s %14s %14s %8s\n", "inputs", "overlap", "grouped",
              "classic", "saved");
  for (size_t k : {2u, 3u, 4u, 5u}) {
    for (double keep : {0.3, 0.7}) {
      uint64_t grouped_total = 0, classic_total = 0;
      for (uint64_t seed = 1; seed <= 20; ++seed) {
        auto rels = RandomRelations(seed * 131 + k, k, 400, keep);
        grouped_total += TuplesRead(rels, 10, true);
        classic_total += TuplesRead(rels, 10, false);
      }
      std::printf("%-8zu %-10.1f %14.1f %14.1f %7.1f%%\n", k, keep,
                  grouped_total / 20.0, classic_total / 20.0,
                  100.0 * (1.0 - double(grouped_total) / classic_total));
    }
  }

  std::printf("\nreal corpus: top-10 keyword queries, entries read\n");
  std::printf("(on these queries both bounds release results at the same\n");
  std::printf(" steps — completion and the static cross-column bounds, not\n");
  std::printf(" the star-join threshold, are the binding constraints; the\n");
  std::printf(" synthetic section above isolates the bound itself)\n");
  xtopk::bench::BenchCorpus corpus = xtopk::bench::BuildDblpBenchCorpus();
  xtopk::JDeweyIndex jindex = corpus.builder->BuildJDeweyIndex();
  xtopk::TopKIndex topk_index = corpus.builder->BuildTopKIndex(jindex);
  const std::vector<std::vector<std::string>> queries = {
      {"corr2a", "corr2b"},
      {"corr3a", "corr3b", "corr3c"},
      {"hi0", "hi1"},
      {"eq4000q0", "eq4000q1", "eq4000q2"},
  };
  for (double damping : {0.9, 0.5}) {
    std::printf("\ndamping base %.1f:\n", damping);
    std::printf("%-26s %14s %14s\n", "query", "grouped", "classic");
    for (const auto& query : queries) {
      uint64_t reads[2];
      int idx = 0;
      for (bool grouped : {true, false}) {
        xtopk::TopKSearchOptions options;
        options.k = 10;
        options.group_threshold = grouped;
        options.scoring.damping_base = damping;
        options.fallback_to_complete = false;  // the star join's own reads
        xtopk::TopKSearch search(topk_index, options);
        search.Search(query);
        reads[idx++] = search.stats().entries_read;
      }
      std::string name;
      for (const auto& kw : query) name += (name.empty() ? "" : "+") + kw;
      std::printf("%-26s %14llu %14llu\n", name.c_str(),
                  (unsigned long long)reads[0], (unsigned long long)reads[1]);
    }
  }
  return 0;
}
