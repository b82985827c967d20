// Table I reproduction: serialized index sizes of every index family on
// the DBLP-like and XMark-like corpora.
//
// Paper (Table I, 496 MB DBLP / 113 MB XMark):
//              DBLP                      XMark
//   Join-based   IL 327MB  sparse 14MB    IL 302MB  sparse 4MB
//   stack-based  IL 392MB                 IL 267MB
//   index-based  B-tree 2.1GB             B-tree 1.3GB
//   Top-K Join   IL 394MB  sparse 14MB    IL 351MB  sparse 4MB
//   RDIL         IL 392MB  B+-tree 446MB  IL 267MB  B+-tree 252MB
//
// The reproduction target is the shape: join-based IL in the same ballpark
// as the stack-based Dewey lists; the (keyword, Dewey) B-tree an order of
// magnitude larger; Top-K Join IL = join-based + scores + segment orders;
// RDIL paying an extra per-keyword B+-tree comparable to its lists.
//
// Beyond the Table-I family figures, each corpus also reports the full
// on-disk footprint of the join-based index — segment file plus the
// planner-statistics manifest sidecar, which the raw IL figure omits —
// broken into components (tree mapping, postings, dictionaries,
// manifests) for the plain image and the compressed one (DAG sidecar and
// dictionary-coded rows, DESIGN.md §15). The `BENCH` lines carry the
// breakdown.

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "index/disk_index.h"
#include "index/index_stats.h"
#include "obs/metrics.h"
#include "util/string_util.h"

namespace {

uint64_t FileBytes(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

int64_t GaugeValue(const char* name) {
  return xtopk::obs::MetricsRegistry::Global().GetGauge(name).value();
}

/// Serializes `jindex` in `format` ("plain" / "compressed"), emits
/// one BENCH line with the total bytes (manifest sidecar included — the
/// raw IL figures omit it) and the per-component breakdown published by
/// the writer, and returns the total.
uint64_t EmitSerializedBreakdown(const char* corpus, const char* format,
                                 const xtopk::JDeweyIndex& jindex,
                                 const xtopk::IndexSizeReport& report) {
  const char* tmp = std::getenv("TMPDIR");
  std::string path = std::string(tmp != nullptr ? tmp : "/tmp") +
                     "/xtopk_table1_" + corpus + "_" + format;
  xtopk::DiskIndexWriter::Options options;
  options.include_scores = false;  // Table I's join-based configuration
  if (std::string(format) == "compressed") {
    options.dag = true;
    options.dict_rows = true;
  }
  xtopk::DiskIndexWriter::Write(jindex, path, options).ok();
  uint64_t file_bytes = FileBytes(path);
  uint64_t manifest_bytes = FileBytes(path + ".manifest");
  std::remove(path.c_str());
  std::remove((path + ".manifest").c_str());

  uint64_t total = file_bytes + manifest_bytes;
  xtopk::bench::BenchJson("table1_index_size")
      .Field("corpus", corpus)
      .Field("format", format)
      .Field("file_bytes", file_bytes)
      .Field("manifest_bytes", manifest_bytes)
      .Field("total_bytes", total)
      .Field("component_tree",
             static_cast<uint64_t>(GaugeValue("storage.disk_write.bytes.tree")))
      .Field("component_postings",
             static_cast<uint64_t>(
                 GaugeValue("storage.disk_write.bytes.postings")))
      .Field("component_directory",
             static_cast<uint64_t>(
                 GaugeValue("storage.disk_write.bytes.directory")))
      .Field("component_dictionaries",
             static_cast<uint64_t>(
                 GaugeValue("storage.disk_write.bytes.sidecar")))
      .Field("component_manifests", manifest_bytes)
      .Field("join_based_il", report.join_based_il)
      .Field("join_based_sparse", report.join_based_sparse)
      .Field("stack_based_il", report.stack_based_il)
      .Field("index_based_btree", report.index_based_btree)
      .Field("topk_join_il", report.topk_join_il)
      .Field("topk_join_sparse", report.topk_join_sparse)
      .Field("rdil_il", report.rdil_il)
      .Field("rdil_btree", report.rdil_btree)
      .Emit();
  return total;
}

void RunCorpus(const char* corpus, xtopk::bench::BenchCorpus (*build)()) {
  xtopk::bench::BenchCorpus bench_corpus = build();
  xtopk::IndexSizeReport report = xtopk::MeasureIndexSizes(
      *bench_corpus.builder, std::string(corpus) + "-like (scaled)");
  std::printf("%s\n", report.ToTable().c_str());
  std::printf("  ratios: index-based/join-IL = %.1fx, rdil-btree/rdil-IL"
              " = %.2fx, topk-IL/join-IL = %.2fx\n",
              double(report.index_based_btree) / report.join_based_il,
              double(report.rdil_btree) / report.rdil_il,
              double(report.topk_join_il) / report.join_based_il);

  xtopk::JDeweyIndex plain = bench_corpus.builder->BuildJDeweyIndex();
  uint64_t plain_bytes =
      EmitSerializedBreakdown(corpus, "plain", plain, report);

  xtopk::IndexBuildOptions comp_options;
  comp_options.enable_dag = true;
  comp_options.enable_dict = true;
  xtopk::IndexBuilder comp_builder(*bench_corpus.tree, comp_options);
  xtopk::JDeweyIndex comp = comp_builder.BuildJDeweyIndex();
  uint64_t comp_bytes =
      EmitSerializedBreakdown(corpus, "compressed", comp, report);

  std::printf("  on-disk join-based + manifest: plain %s, compressed"
              " (dict+DAG) %s (%.1f%% smaller)\n\n",
              xtopk::HumanBytes(plain_bytes).c_str(),
              xtopk::HumanBytes(comp_bytes).c_str(),
              plain_bytes == 0
                  ? 0.0
                  : (1.0 - double(comp_bytes) / plain_bytes) * 100.0);
}

}  // namespace

int main() {
  std::printf("=== Table I: index sizes ===\n\n");
  RunCorpus("dblp", xtopk::bench::BuildDblpBenchCorpus);
  RunCorpus("xmark", xtopk::bench::BuildXmarkBenchCorpus);
  return 0;
}
