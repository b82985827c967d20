// Ablation A5 (paper §III-B): the I/O profile of the column-oriented
// disk layout. "The algorithm does not read the whole JDewey sequences
// from the disk at once … the scan starts from l0 = min{l_m^1, l_m^2} …
// this would save disk I/O when the XML tree is deep and some keywords
// only appear at high levels."
//
// We write the XMark-like index to the paged file, then compare pages read
// per query for (a) keyword pairs whose l0 is shallow (one keyword only
// occurs near the root) vs (b) pairs of deep keywords, against the cost of
// materializing the full lists (what a Dewey-id layout must read).

#include <cstdio>

#include "bench_util.h"
#include "index/disk_index.h"
#include "workload/xmark_gen.h"

int main() {
  // Deep auction corpus with planted keywords at controlled depths:
  // person names sit at level 4, item description texts at level 7-8.
  xtopk::XmarkGenOptions gen;
  gen.items_per_region = 1200;
  gen.num_people = 6000;
  gen.num_open_auctions = 2500;
  gen.seed = 99;
  xtopk::XmarkCorpus corpus = xtopk::GenerateXmark(gen);
  // Plant one keyword only into shallow targets (person names, level 4)
  // and one only into deep targets (listitem texts, level 8).
  std::vector<xtopk::NodeId> shallow_targets, deep_targets;
  for (xtopk::NodeId n : corpus.text_nodes) {
    uint32_t level = corpus.tree.level(n);
    if (level <= 4) shallow_targets.push_back(n);
    if (level >= 7) deep_targets.push_back(n);
  }
  xtopk::Rng rng(7);
  xtopk::PlantTerms(&corpus.tree, shallow_targets,
                    {{"shallowkw", 15000, "", 0.0}}, &rng);
  xtopk::PlantTerms(&corpus.tree, deep_targets,
                    {{"deepkw1", 15000, "", 0.0}, {"deepkw2", 15000, "", 0.0}},
                    &rng);

  xtopk::IndexBuilder builder(corpus.tree);
  xtopk::JDeweyIndex jindex = builder.BuildJDeweyIndex();
  std::string path = "/tmp/xtopk_bench_io.idx";
  xtopk::Status s = xtopk::DiskIndexWriter::Write(jindex, path);
  if (!s.ok()) {
    std::fprintf(stderr, "write: %s\n", s.ToString().c_str());
    return 1;
  }

  std::printf("=== Ablation A5: disk I/O of the column layout (§III-B) ===\n");
  std::printf("corpus: %zu nodes, depth %u; index on 8 KiB pages\n\n",
              corpus.tree.node_count(), corpus.tree.max_level());
  std::printf("%-26s %4s %12s %14s\n", "query", "l0", "pages read",
              "full-list pages");

  struct Case {
    std::vector<std::string> query;
  };
  for (const Case& c : {Case{{"shallowkw", "deepkw1"}},
                        Case{{"deepkw1", "deepkw2"}}}) {
    auto disk = xtopk::DiskJDeweyIndex::Open(path, /*pool_pages=*/65536);
    if (!disk.ok()) {
      std::fprintf(stderr, "open: %s\n", disk.status().ToString().c_str());
      return 1;
    }
    uint32_t l0 = UINT32_MAX;
    for (const auto& kw : c.query) {
      l0 = std::min(l0, (*disk)->MaxLength(kw));
    }
    (*disk)->ResetIoStats();
    xtopk::JoinSearchOptions search_options;
    search_options.compute_scores = false;  // Fig. 9-style unranked run
    auto results = (*disk)->SearchComplete(c.query, search_options);
    if (!results.ok()) {
      std::fprintf(stderr, "search: %s\n",
                   results.status().ToString().c_str());
      return 1;
    }
    uint64_t query_pages = (*disk)->io_stats().pages_read;

    // Reference: materializing both lists fully (all levels).
    auto full = xtopk::DiskJDeweyIndex::Open(path, 65536);
    (*full)->ResetIoStats();
    for (const auto& kw : c.query) {
      auto list = (*full)->LoadList(kw, 64, /*need_scores=*/false);
      if (!list.ok()) return 1;
    }
    uint64_t full_pages = (*full)->io_stats().pages_read;

    std::string name = c.query[0] + "+" + c.query[1];
    std::printf("%-26s %4u %12llu %14llu\n", name.c_str(), l0,
                (unsigned long long)query_pages,
                (unsigned long long)full_pages);
  }
  std::printf(
      "\nexpected shape: the shallow-l0 query touches far fewer pages than\n"
      "a full materialization; deep-pair queries approach it.\n");
  std::remove(path.c_str());
  std::remove((path + ".manifest").c_str());
  return 0;
}
