// Command-line search tool: index an XML document (optionally persisting
// the index), then answer keyword queries from the command line.
//
//   xtopk_cli index  <doc.xml> <index-file>      build & save the index
//   xtopk_cli search <doc.xml> <kw> [kw...]      parse, index, query
//   xtopk_cli load   <index-file> <kw> [kw...]   query a saved index
//
// Flags (before the subcommand): --slca, --topk N
//
// `load` demonstrates the persistence path: the saved disk image (plus its
// `.manifest`) is self-contained for querying — a disk session reads only
// the columns each query needs. Results print as (level, node) pairs
// because the original document is not re-read.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/engine.h"
#include "index/disk_index.h"
#include "index/index_builder.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "xml/xml_parser.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: xtopk_cli [--slca] [--topk N] index <doc.xml> <idx>\n"
               "       xtopk_cli [--slca] [--topk N] search <doc.xml> <kw>...\n"
               "       xtopk_cli [--slca] [--topk N] load <idx> <kw>...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  xtopk::Semantics semantics = xtopk::Semantics::kElca;
  size_t topk = 0;  // 0 = complete result set
  int arg = 1;
  while (arg < argc && argv[arg][0] == '-') {
    if (std::strcmp(argv[arg], "--slca") == 0) {
      semantics = xtopk::Semantics::kSlca;
      ++arg;
    } else if (std::strcmp(argv[arg], "--topk") == 0 && arg + 1 < argc) {
      topk = static_cast<size_t>(std::atoi(argv[arg + 1]));
      arg += 2;
    } else {
      return Usage();
    }
  }
  if (arg >= argc) return Usage();
  std::string command = argv[arg++];

  if (command == "index") {
    if (arg + 2 != argc) return Usage();
    auto parsed = xtopk::ParseXmlFile(argv[arg]);
    if (!parsed.ok()) {
      std::fprintf(stderr, "parse: %s\n", parsed.status().ToString().c_str());
      return 1;
    }
    xtopk::Timer timer;
    xtopk::IndexBuilder builder(*parsed);
    xtopk::JDeweyIndex index = builder.BuildJDeweyIndex();
    xtopk::Status s = xtopk::DiskIndexWriter::Write(index, argv[arg + 1]);
    if (!s.ok()) {
      std::fprintf(stderr, "save: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("indexed %zu elements, %zu terms in %.2fs -> %s\n",
                parsed->node_count(), index.term_count(),
                timer.ElapsedSeconds(), argv[arg + 1]);
    return 0;
  }

  if (command == "search") {
    if (arg + 2 > argc) return Usage();
    auto parsed = xtopk::ParseXmlFile(argv[arg++]);
    if (!parsed.ok()) {
      std::fprintf(stderr, "parse: %s\n", parsed.status().ToString().c_str());
      return 1;
    }
    std::vector<std::string> keywords;
    for (; arg < argc; ++arg) keywords.push_back(xtopk::AsciiLower(argv[arg]));
    xtopk::Engine engine(*parsed);
    xtopk::Timer timer;
    auto hits = topk > 0 ? engine.SearchTopK(keywords, topk, semantics)
                         : engine.Search(keywords, semantics);
    double ms = timer.ElapsedMillis();
    std::printf("%zu hit(s) in %.2f ms\n", hits.size(), ms);
    for (const auto& hit : hits) {
      std::printf("  <%s> level %u score %.4f  %.60s\n", hit.tag.c_str(),
                  hit.level, hit.score, hit.snippet.c_str());
    }
    return 0;
  }

  if (command == "load") {
    if (arg + 2 > argc) return Usage();
    auto index = xtopk::DiskJDeweyIndex::Open(argv[arg++]);
    if (!index.ok()) {
      std::fprintf(stderr, "load: %s\n", index.status().ToString().c_str());
      return 1;
    }
    std::vector<std::string> keywords;
    for (; arg < argc; ++arg) keywords.push_back(xtopk::AsciiLower(argv[arg]));
    xtopk::Timer timer;
    xtopk::StatusOr<std::vector<xtopk::SearchResult>> results =
        std::vector<xtopk::SearchResult>();
    if (topk > 0) {
      // The saved image carries scores, so the session derives the top-K
      // segments of the queried lists directly.
      xtopk::TopKSearchOptions options;
      options.semantics = semantics;
      options.k = topk;
      results = (*index)->SearchTopK(keywords, options);
    } else {
      xtopk::JoinSearchOptions options;
      options.semantics = semantics;
      results = (*index)->SearchComplete(keywords, options);
      if (results.ok()) xtopk::SortByScoreDesc(&*results);
    }
    if (!results.ok()) {
      std::fprintf(stderr, "search: %s\n",
                   results.status().ToString().c_str());
      return 1;
    }
    double ms = timer.ElapsedMillis();
    std::printf("%zu hit(s) in %.2f ms (from saved index)\n",
                results->size(), ms);
    for (const auto& r : *results) {
      std::printf("  node %u at level %u, score %.4f\n", r.node, r.level,
                  r.score);
    }
    return 0;
  }
  return Usage();
}
