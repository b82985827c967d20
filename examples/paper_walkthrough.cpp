// A guided tour of the paper's machinery on a small document, mirroring
// its figures: the JDewey encoding (Fig. 1), the column-oriented inverted
// lists with their runs (Fig. 2/3), Algorithm 1's bottom-up joins with the
// semantic pruning, and the top-K pass with its thresholds.
//
//   ./paper_walkthrough

#include <cstdio>
#include <string>
#include <vector>

#include "core/join_search.h"
#include "core/topk_search.h"
#include "index/index_builder.h"
#include "xml/dewey.h"
#include "xml/jdewey.h"
#include "xml/xml_parser.h"

namespace {

using namespace xtopk;  // example code; the library itself never does this

void DumpEncoding(const XmlTree& tree, const IndexBuilder& builder) {
  std::printf("1. The document with Dewey ids and JDewey sequences\n");
  std::printf("   (JDewey: the pair (level, number) alone identifies a"
              " node)\n\n");
  const JDeweyEncoding& enc = builder.jdewey_encoding();
  const std::vector<DeweyId> deweys = AssignDeweyIds(tree);
  for (NodeId id = 0; id < tree.node_count(); ++id) {
    JDeweySeq seq = enc.SequenceOf(tree, id);
    std::printf("   %*s<%s>%s%s  dewey=%-10s jdewey=%s\n",
                2 * (tree.level(id) - 1), "", tree.TagName(id).c_str(),
                tree.text(id).empty() ? "" : " ",
                tree.text(id).c_str(), deweys[id].ToString().c_str(),
                JDeweySeqToString(seq).c_str());
  }
}

void DumpList(const char* term, const JDeweyList& list) {
  std::printf("\n   inverted list of \"%s\" (%u rows, stored by column;\n"
              "   each column is run-length (v, first-row, count) per"
              " §III-D):\n", term, list.num_rows());
  for (uint32_t level = 1; level <= list.max_length; ++level) {
    std::printf("     column %u:", level);
    for (const Run& run : list.column(level).runs()) {
      std::printf("  (v=%u, r=%u, c=%u)", run.value, run.first_row,
                  run.count);
    }
    std::printf("\n");
  }
}

}  // namespace

int main() {
  // A miniature of the paper's Figure 1 situation: "xml" and "data"
  // co-occur tightly in one section and loosely across sections.
  XmlTree tree = ParseXmlStringOrDie(R"(
    <proceedings>
      <section>
        <paper>xml</paper>
        <paper>keyword search</paper>
      </section>
      <section>
        <paper>xml data management</paper>
        <paper>data</paper>
      </section>
      <section>
        <paper>xml</paper>
        <paper>data</paper>
      </section>
    </proceedings>)");

  IndexBuildOptions options;
  options.index_tag_names = false;
  IndexBuilder builder(tree, options);
  DumpEncoding(tree, builder);

  JDeweyIndex jindex = builder.BuildJDeweyIndex();
  std::printf("\n2. Column-oriented inverted lists (paper Fig. 2/3)\n");
  DumpList("xml", *jindex.GetList("xml"));
  DumpList("data", *jindex.GetList("data"));

  std::printf("\n3. Algorithm 1: join columns bottom-up; every value\n"
              "   matched in all lists is checked against previously\n"
              "   erased ranges (ELCA) and erases its runs on success\n\n");
  JoinSearch search(jindex);
  std::vector<LevelTrace> trace;
  auto results = search.SearchWithTrace({"xml", "data"}, &trace);
  for (const SearchResult& r : results) {
    std::printf("   ELCA: <%s> at level %u, score %.4f\n",
                tree.TagName(r.node).c_str(), r.level, r.score);
  }
  std::printf("\n   EXPLAIN (per level, bottom-up):\n");
  for (const LevelTrace& level : trace) {
    std::printf("     level %u:", level.level);
    for (const JoinStepTrace& step : level.steps) {
      const char* algo = step.algo == JoinAlgo::kIndex    ? "index"
                         : step.algo == JoinAlgo::kGallop ? "gallop"
                                                          : "merge";
      std::printf(" %s-join(col of kw#%zu, %llu runs)->%llu", algo,
                  step.query_position, (unsigned long long)step.input_runs,
                  (unsigned long long)step.output_matches);
    }
    std::printf("  candidates=%llu results=%llu erased=%llu\n",
                (unsigned long long)level.candidates,
                (unsigned long long)level.results,
                (unsigned long long)level.rows_erased);
  }

  std::printf("\n4. The top-K pass (§IV): score-ordered segments per\n"
              "   column, star join with the grouped threshold, early\n"
              "   emission against the cross-column bounds\n\n");
  TopKIndex topk_index = builder.BuildTopKIndex(jindex);
  TopKSearchOptions topk_options;
  topk_options.k = 2;
  // The paper's algorithm itself: on lists this short the default entry
  // budget would hand the query straight to the complete join.
  topk_options.fallback_to_complete = false;
  TopKSearch topk(topk_index, topk_options);
  auto top = topk.Search({"xml", "data"});
  for (const SearchResult& r : top) {
    std::printf("   top: <%s> at level %u, score %.4f\n",
                tree.TagName(r.node).c_str(), r.level, r.score);
  }
  std::printf("   (entries read: %llu — rows are served per column — over "
              "%u list rows; early emissions: %llu)\n",
              (unsigned long long)topk.stats().entries_read,
              jindex.Frequency("xml") + jindex.Frequency("data"),
              (unsigned long long)topk.stats().early_emissions);
  return 0;
}
