// Top-K strategy demo: every top-K query starts as the paper's star join
// (§IV) under a budget of Σ|L_i| / 200 entries read. Keywords that co-occur
// in nearly every match prove their k results inside it; the others run
// out, and the query is answered by the complete join plus a partial sort
// instead — the "complementary plans" of §V-D, chosen by what the star
// join actually costs. Explain shows which strategy answered and what it
// read.
//
//   ./hybrid_demo

#include <cstdio>
#include <string>
#include <vector>

#include "core/engine.h"
#include "workload/dblp_gen.h"

int main() {
  xtopk::DblpGenOptions gen;
  gen.planted = {
      {"stream", 2000, "", 0.0},
      {"processing", 3000, "stream", 0.7},  // strongly correlated pair
      {"origami", 600, "", 0.0},            // unrelated to everything
      {"walrus", 900, "", 0.0},
  };
  xtopk::DblpCorpus corpus = xtopk::GenerateDblp(gen);
  xtopk::Engine engine(corpus.tree);

  std::printf("corpus: %zu nodes\n\n", corpus.tree.node_count());
  std::printf("%-24s %-18s %-16s %s\n", "query", "strategy",
              "entries/budget", "top-10 time");

  const std::vector<std::vector<std::string>> queries = {
      {"paper", "title"},  // tags present in every paper record
      {"stream", "processing"},
      {"origami", "walrus"},
      {"stream", "origami"},
      {"processing", "walrus"},
  };
  for (const auto& query : queries) {
    xtopk::ExplainResult explained = engine.Explain(query, 10);
    const xtopk::obs::QueryTrace& trace = explained.trace;
    std::string strategy = "?";
    double entries = 0.0, budget = 0.0;
    for (size_t id = 0; id < trace.spans().size(); ++id) {
      const auto& span = trace.spans()[id];
      if (span.name != "topk_search") continue;
      for (const auto& [key, value] : span.labels) {
        if (key == "strategy") strategy = value;
      }
      entries = trace.StatOr(static_cast<int>(id), "entries_read");
      budget = trace.StatOr(static_cast<int>(id), "budget");
    }
    std::string name = query[0] + " + " + query[1];
    std::string read = std::to_string(static_cast<long>(entries)) + "/" +
                       std::to_string(static_cast<long>(budget));
    std::printf("%-24s %-18s %-16s %6.3f ms  (%zu results)\n", name.c_str(),
                strategy.c_str(), read.c_str(), trace.total_us() / 1000.0,
                explained.hits.size());
  }
  return 0;
}
