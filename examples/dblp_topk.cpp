// DBLP-like scenario (the paper's primary motivation): build a synthetic
// bibliography of conferences/years/papers, then answer top-10 keyword
// queries three ways — join-based top-K, complete join-based + sort, and
// the RDIL baseline — printing results and the work each algorithm did.
//
//   ./dblp_topk [papers_per_year]

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "baseline/rdil.h"
#include "core/join_search.h"
#include "core/topk_search.h"
#include "index/index_builder.h"
#include "util/timer.h"
#include "workload/dblp_gen.h"

namespace {

void PrintResults(const char* name,
                  const std::vector<xtopk::SearchResult>& results,
                  const xtopk::XmlTree& tree, double millis,
                  const std::string& work) {
  std::printf("%-22s %6.2f ms   %s\n", name, millis, work.c_str());
  for (size_t i = 0; i < results.size() && i < 3; ++i) {
    std::printf("    #%zu <%s> score %.4f\n", i + 1,
                tree.TagName(results[i].node).c_str(), results[i].score);
  }
}

}  // namespace

int main(int argc, char** argv) {
  xtopk::DblpGenOptions gen;
  gen.papers_per_year = argc > 1 ? std::atoi(argv[1]) : 40;
  // Plant a correlated pair ("sensor network"-style) and an uncorrelated
  // pair so both regimes of Fig. 10 show up.
  gen.planted = {
      {"sensor", 900, "", 0.0},
      {"network", 1500, "sensor", 0.6},
      {"quantum", 400, "", 0.0},
      {"basket", 700, "", 0.0},
  };
  xtopk::DblpCorpus corpus = xtopk::GenerateDblp(gen);
  std::printf("corpus: %zu nodes, %zu papers\n\n", corpus.tree.node_count(),
              corpus.titles.size());

  xtopk::IndexBuilder builder(corpus.tree);
  xtopk::JDeweyIndex jindex = builder.BuildJDeweyIndex();
  xtopk::TopKIndex topk_index = builder.BuildTopKIndex(jindex);
  xtopk::DeweyIndex dindex = builder.BuildDeweyIndex();
  xtopk::RdilIndex rdil_index = builder.BuildRdilIndex(dindex);

  const std::vector<std::vector<std::string>> queries = {
      {"sensor", "network"},   // correlated: the top-K join's home turf
      {"quantum", "basket"},   // uncorrelated: complete join wins
  };

  for (const auto& query : queries) {
    std::printf("query: {");
    for (size_t i = 0; i < query.size(); ++i) {
      std::printf("%s%s", i ? ", " : "", query[i].c_str());
    }
    std::printf("}  frequencies:");
    for (const auto& kw : query) {
      std::printf(" %u", jindex.Frequency(kw));
    }
    std::printf("\n");

    {
      xtopk::TopKSearchOptions options;
      options.k = 10;
      xtopk::TopKSearch search(topk_index, options);
      xtopk::Timer timer;
      auto results = search.Search(query);
      double ms = timer.ElapsedMillis();
      char work[160];
      std::snprintf(work, sizeof(work),
                    "entries_read=%llu early=%llu columns=%u strategy=%s",
                    (unsigned long long)search.stats().entries_read,
                    (unsigned long long)search.stats().early_emissions,
                    search.stats().columns_processed,
                    search.stats().fell_back ? "complete_fallback"
                                             : "star_join");
      PrintResults("join-based top-K", results, corpus.tree, ms, work);
    }
    {
      xtopk::JoinSearch search(jindex);
      xtopk::Timer timer;
      auto results = search.Search(query);
      xtopk::SortByScoreDesc(&results);
      if (results.size() > 10) results.resize(10);
      double ms = timer.ElapsedMillis();
      char work[128];
      std::snprintf(work, sizeof(work), "candidates=%llu results=%llu",
                    (unsigned long long)search.stats().candidates,
                    (unsigned long long)search.stats().results);
      PrintResults("complete join + sort", results, corpus.tree, ms, work);
    }
    {
      xtopk::RdilOptions options;
      options.k = 10;
      xtopk::RdilSearch search(corpus.tree, rdil_index, options);
      xtopk::Timer timer;
      auto results = search.Search(query);
      double ms = timer.ElapsedMillis();
      char work[128];
      std::snprintf(work, sizeof(work), "entries_read=%llu checked=%llu",
                    (unsigned long long)search.stats().entries_read,
                    (unsigned long long)search.stats().candidates_checked);
      PrintResults("RDIL baseline", results, corpus.tree, ms, work);
    }
    std::printf("\n");
  }
  return 0;
}
