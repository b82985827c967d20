#include "index/index_stats.h"

#include <cstdio>

#include "util/string_util.h"

namespace xtopk {

std::string IndexSizeReport::ToTable() const {
  char buf[256];
  std::string out;
  out += "Index sizes — " + corpus + "\n";
  auto row = [&](const char* name, uint64_t il, const char* aux_name,
                 uint64_t aux) {
    if (aux_name != nullptr) {
      std::snprintf(buf, sizeof(buf), "  %-12s IL %10s   %-8s %10s\n", name,
                    HumanBytes(il).c_str(), aux_name,
                    HumanBytes(aux).c_str());
    } else {
      std::snprintf(buf, sizeof(buf), "  %-12s IL %10s\n", name,
                    HumanBytes(il).c_str());
    }
    out += buf;
  };
  row("Join-based", join_based_il, "sparse", join_based_sparse);
  row("stack-based", stack_based_il, nullptr, 0);
  std::snprintf(buf, sizeof(buf), "  %-12s B-tree %6s\n", "index-based",
                HumanBytes(index_based_btree).c_str());
  out += buf;
  row("Top-K Join", topk_join_il, "sparse", topk_join_sparse);
  row("RDIL", rdil_il, "B+-tree", rdil_btree);
  return out;
}

IndexSizeReport MeasureIndexSizes(const IndexBuilder& builder,
                                  const std::string& corpus) {
  IndexSizeReport report;
  report.corpus = corpus;

  const JDeweyIndex& jindex = builder.jdewey_index();
  report.join_based_il = jindex.EncodedListBytes(/*include_scores=*/false);
  report.join_based_sparse = jindex.SparseIndexBytes();

  DeweyIndex dindex = builder.BuildDeweyIndex();
  report.stack_based_il = dindex.EncodedListBytes();

  BTree combined = builder.BuildCombinedBTree(dindex);
  report.index_based_btree = combined.EncodedSizeBytes();

  TopKIndex topk = builder.BuildTopKIndex(jindex);
  report.topk_join_il = topk.EncodedListBytes();
  report.topk_join_sparse = report.join_based_sparse;

  RdilIndex rdil = builder.BuildRdilIndex(dindex);
  report.rdil_il = rdil.EncodedListBytes();
  report.rdil_btree = rdil.BTreeBytes();

  return report;
}

}  // namespace xtopk
