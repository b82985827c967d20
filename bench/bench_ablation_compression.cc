// Ablation A1 (paper §III-D): what the two column codecs buy.
//
// Prints the serialized inverted-list size of the DBLP-like corpus under
// forced delta, forced run-length, and the per-column auto choice; then
// the structure-aware compression ablation (DESIGN.md §15): serialized
// index bytes and multi-term join throughput with the subtree DAG +
// dictionary layer on vs off, over a repeated-subtree corpus (where it
// should win) and a uniform corpus of the same shape but unique content
// (where it must get out of the way). The `BENCH` lines of that section
// feed the CI compression perf-smoke gate. Finally, google-benchmark
// micro-benchmarks of encode/decode throughput on representative column
// shapes (duplicate-heavy conference-level columns vs distinct-heavy
// paper-level columns).

#include <benchmark/benchmark.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "core/dag_join.h"
#include "core/join_search.h"
#include "index/disk_index.h"
#include "index/index_builder.h"
#include "storage/compression.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "xml/xml_tree.h"

namespace {

uint64_t FileBytes(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

const std::vector<std::string>& Vocab() {
  static const std::vector<std::string> kVocab = {"alpha", "beta",  "gamma",
                                                  "delta", "eps",   "zeta"};
  return kVocab;
}

/// Structured catalog/section/item corpus. With `repeated` every section
/// holds many byte-identical items (the shape the subtree DAG shares);
/// without it every item additionally carries a unique token, so no two
/// subtrees are identical and the compression layer must not tax the
/// index. Filler "note" siblings interleave with the items either way, so
/// shared regions are never wall-to-wall contiguous.
xtopk::XmlTree MakeStructuredCorpus(bool repeated, size_t groups,
                                    size_t copies) {
  const std::vector<std::string>& vocab = Vocab();
  xtopk::Rng rng(repeated ? 41 : 42);
  xtopk::XmlTree tree;
  xtopk::NodeId root = tree.CreateRoot("catalog");
  for (size_t g = 0; g < groups; ++g) {
    xtopk::NodeId section = tree.AddChild(root, "section");
    const std::string& t0 = vocab[g % vocab.size()];
    const std::string& t1 = vocab[(g + 1) % vocab.size()];
    for (size_t c = 0; c < copies; ++c) {
      xtopk::NodeId item = tree.AddChild(section, "item");
      xtopk::NodeId name = tree.AddChild(item, "name");
      std::string unique =
          repeated ? ""
                   : " u" + std::to_string(g) + "x" + std::to_string(c);
      tree.AppendText(name, t0 + unique);
      xtopk::NodeId props = tree.AddChild(item, "props");
      xtopk::NodeId payload = tree.AddChild(props, "payload");
      tree.AppendText(payload, t1 + " " + t0 + unique);
      if (rng.NextBernoulli(0.1)) {
        xtopk::NodeId filler = tree.AddChild(section, "note");
        tree.AppendText(filler, vocab[rng.NextBounded(vocab.size())] + " f" +
                                    std::to_string(g) + "x" +
                                    std::to_string(c));
      }
    }
  }
  return tree;
}

/// The multi-term workload of the structure ablation: every adjacent
/// vocabulary pair — each pair co-occurs inside the items of the sections
/// that planted it.
std::vector<std::vector<std::string>> StructureQueries() {
  const std::vector<std::string>& vocab = Vocab();
  std::vector<std::vector<std::string>> queries;
  for (size_t i = 0; i < vocab.size(); ++i) {
    queries.push_back({vocab[i], vocab[(i + 1) % vocab.size()]});
  }
  return queries;
}

/// QPS of JoinSearch over `index` on the structure workload (hot, after
/// one warm-up pass). `checksum` guards against dead-code elimination and
/// doubles as an any-difference tripwire between the two index forms.
double StructureJoinQps(const xtopk::JDeweyIndex& index, uint64_t* checksum) {
  std::vector<std::vector<std::string>> queries = StructureQueries();
  xtopk::JoinSearch search(index);
  uint64_t sum = 0;
  for (const auto& q : queries) sum += search.Search(q).size();  // warm-up
  const size_t kIters = 40;
  xtopk::Timer timer;
  for (size_t it = 0; it < kIters; ++it) {
    for (const auto& q : queries) sum += search.Search(q).size();
  }
  double seconds = timer.ElapsedSeconds();
  *checksum = sum;
  return static_cast<double>(kIters * queries.size()) / seconds;
}

/// Throughput of the join's intersection layer — the stage the DAG
/// rewires (each shared subtree is intersected once, matches fan out
/// afterwards): full per-query level sweeps of IntersectListsAtLevel,
/// measured in sweeps per second. `checksum` totals emitted matches so
/// both index forms must agree.
double StructureIntersectQps(const xtopk::JDeweyIndex& index,
                             uint64_t* checksum) {
  std::vector<std::vector<std::string>> queries = StructureQueries();
  std::vector<std::vector<const xtopk::JDeweyList*>> lists;
  for (const auto& q : queries) {
    std::vector<const xtopk::JDeweyList*> ordered;
    for (const std::string& kw : q) ordered.push_back(index.GetList(kw));
    lists.push_back(std::move(ordered));
  }
  xtopk::PlannerOptions planner;
  xtopk::JoinOpStats stats;
  uint64_t sum = 0;
  auto sweep = [&]() {
    for (const auto& ordered : lists) {
      uint32_t min_len = UINT32_MAX;
      for (const xtopk::JDeweyList* l : ordered) {
        min_len = std::min(min_len, l->max_length);
      }
      for (uint32_t level = 1; level <= min_len; ++level) {
        std::deque<xtopk::Run> arena;
        sum += xtopk::IntersectListsAtLevel(ordered, level, nullptr, planner,
                                            &stats, nullptr, &arena)
                   .size();
      }
    }
  };
  sweep();  // warm-up
  const size_t kIters = 60;
  xtopk::Timer timer;
  for (size_t it = 0; it < kIters; ++it) sweep();
  double seconds = timer.ElapsedSeconds();
  *checksum = sum;
  return static_cast<double>(kIters * lists.size()) / seconds;
}

/// One corpus of the structure ablation: builds the index with the
/// compression layer off and on, serializes both (the plain image vs the
/// compressed one with the DAG sidecar and dictionary-coded rows,
/// manifests included) and measures the join
/// throughput of each in-memory form.
void RunStructureAblation(const char* label, bool repeated, size_t groups,
                          size_t copies) {
  xtopk::XmlTree tree = MakeStructuredCorpus(repeated, groups, copies);

  xtopk::IndexBuilder plain_builder(tree);
  xtopk::JDeweyIndex plain = plain_builder.BuildJDeweyIndex();

  xtopk::IndexBuildOptions comp_options;
  comp_options.enable_dag = true;
  comp_options.enable_dict = true;
  xtopk::IndexBuilder comp_builder(tree, comp_options);
  xtopk::JDeweyIndex comp = comp_builder.BuildJDeweyIndex();

  size_t dag_lists = 0;
  for (const xtopk::JDeweyList& list : comp.lists()) {
    if (list.dag != nullptr) ++dag_lists;
  }

  const char* tmp = std::getenv("TMPDIR");
  std::string base = std::string(tmp != nullptr ? tmp : "/tmp") +
                     "/xtopk_bench_compression_" + label;
  std::string plain_path = base + "_plain", comp_path = base + "_comp";
  xtopk::DiskIndexWriter::Options plain_write;
  plain_write.include_scores = false;
  xtopk::DiskIndexWriter::Write(plain, plain_path, plain_write).ok();
  xtopk::DiskIndexWriter::Options comp_write = plain_write;
  comp_write.dag = true;
  comp_write.dict_rows = true;
  xtopk::DiskIndexWriter::Write(comp, comp_path, comp_write).ok();

  uint64_t bytes_plain =
      FileBytes(plain_path) + FileBytes(plain_path + ".manifest");
  uint64_t bytes_comp =
      FileBytes(comp_path) + FileBytes(comp_path + ".manifest");
  for (const std::string& p : {plain_path, comp_path}) {
    std::remove(p.c_str());
    std::remove((p + ".manifest").c_str());
  }

  // Interleaved best-of-5: the two index forms take turns, and the form
  // timed first alternates between repeats, so neither always inherits
  // the other's cache and allocator state. Alternation cancels slow drift
  // (frequency scaling), and the max filters the one-sided stalls that
  // would otherwise fake a regression.
  uint64_t sum_plain = 0, sum_comp = 0;
  uint64_t isum_plain = 0, isum_comp = 0;
  double e2e_plain = 0, e2e_comp = 0, join_plain = 0, join_comp = 0;
  for (int rep = 0; rep < 5; ++rep) {
    for (int turn = 0; turn < 2; ++turn) {
      if ((rep + turn) % 2 == 0) {
        e2e_plain = std::max(e2e_plain, StructureJoinQps(plain, &sum_plain));
      } else {
        e2e_comp = std::max(e2e_comp, StructureJoinQps(comp, &sum_comp));
      }
    }
    for (int turn = 0; turn < 2; ++turn) {
      if ((rep + turn) % 2 == 0) {
        join_plain =
            std::max(join_plain, StructureIntersectQps(plain, &isum_plain));
      } else {
        join_comp =
            std::max(join_comp, StructureIntersectQps(comp, &isum_comp));
      }
    }
  }
  bool match = sum_plain == sum_comp && isum_plain == isum_comp;
  if (!match) {
    std::fprintf(stderr,
                 "[bench] RESULT MISMATCH on %s: e2e %llu vs %llu, "
                 "intersect %llu vs %llu\n",
                 label, static_cast<unsigned long long>(sum_plain),
                 static_cast<unsigned long long>(sum_comp),
                 static_cast<unsigned long long>(isum_plain),
                 static_cast<unsigned long long>(isum_comp));
  }

  double reduction =
      bytes_plain == 0
          ? 0.0
          : 1.0 - static_cast<double>(bytes_comp) / bytes_plain;
  double speedup = join_plain == 0.0 ? 0.0 : join_comp / join_plain;
  double e2e_speedup = e2e_plain == 0.0 ? 0.0 : e2e_comp / e2e_plain;
  std::printf("%s corpus (%zu nodes, %zu DAG lists):\n", label,
              tree.node_count(), dag_lists);
  std::printf("  serialized      off %s  on %s  (%.1f%% smaller)\n",
              xtopk::HumanBytes(bytes_plain).c_str(),
              xtopk::HumanBytes(bytes_comp).c_str(), reduction * 100.0);
  std::printf("  intersect qps   off %.0f  on %.0f  (%.2fx)\n", join_plain,
              join_comp, speedup);
  std::printf("  end-to-end qps  off %.0f  on %.0f  (%.2fx)\n\n", e2e_plain,
              e2e_comp, e2e_speedup);

  xtopk::bench::BenchJson("ablation_compression_structure")
      .Field("corpus", label)
      .Field("nodes", static_cast<uint64_t>(tree.node_count()))
      .Field("dag_lists", static_cast<uint64_t>(dag_lists))
      .Field("bytes_plain", bytes_plain)
      .Field("bytes_compressed", bytes_comp)
      .Field("size_reduction", reduction)
      .Field("join_qps_plain", join_plain)
      .Field("join_qps_compressed", join_comp)
      .Field("join_speedup", speedup)
      .Field("e2e_qps_plain", e2e_plain)
      .Field("e2e_qps_compressed", e2e_comp)
      .Field("e2e_speedup", e2e_speedup)
      .Field("results_match", match ? 1 : 0)
      .Emit();
}

xtopk::Column MakeColumn(uint64_t seed, uint32_t rows, double dup_prob) {
  xtopk::Rng rng(seed);
  xtopk::Column col;
  uint32_t row = 0, value = 1;
  for (uint32_t i = 0; i < rows; ++i) {
    col.Append(row++, value);
    if (!rng.NextBernoulli(dup_prob)) {
      value += 1 + static_cast<uint32_t>(rng.NextBounded(16));
    }
  }
  return col;
}

void BM_EncodeDelta(benchmark::State& state) {
  xtopk::Column col = MakeColumn(1, 100000, 0.05);
  for (auto _ : state) {
    std::string buf;
    xtopk::EncodeColumn(col, xtopk::ColumnCodec::kDelta, &buf);
    benchmark::DoNotOptimize(buf);
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_EncodeDelta);

void BM_EncodeRunLength(benchmark::State& state) {
  xtopk::Column col = MakeColumn(2, 100000, 0.95);
  for (auto _ : state) {
    std::string buf;
    xtopk::EncodeColumn(col, xtopk::ColumnCodec::kRunLength, &buf);
    benchmark::DoNotOptimize(buf);
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_EncodeRunLength);

void BM_DecodeDelta(benchmark::State& state) {
  xtopk::Column col = MakeColumn(3, 100000, 0.05);
  std::string buf;
  xtopk::EncodeColumn(col, xtopk::ColumnCodec::kDelta, &buf);
  std::vector<uint32_t> rows;
  for (const xtopk::Run& run : col.runs()) {
    for (uint32_t i = 0; i < run.count; ++i) rows.push_back(run.first_row + i);
  }
  for (auto _ : state) {
    xtopk::Column out;
    size_t pos = 0;
    benchmark::DoNotOptimize(xtopk::DecodeColumn(buf, &pos, &rows, &out).ok());
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_DecodeDelta);

void BM_DecodeRunLength(benchmark::State& state) {
  xtopk::Column col = MakeColumn(4, 100000, 0.95);
  std::string buf;
  xtopk::EncodeColumn(col, xtopk::ColumnCodec::kRunLength, &buf);
  for (auto _ : state) {
    xtopk::Column out;
    size_t pos = 0;
    benchmark::DoNotOptimize(
        xtopk::DecodeColumn(buf, &pos, nullptr, &out).ok());
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_DecodeRunLength);

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== Ablation A1: column compression ===\n\n");
  {
    // Index size under each codec, over the real bench corpus.
    xtopk::bench::BenchCorpus corpus = xtopk::bench::BuildDblpBenchCorpus();
    xtopk::JDeweyIndex jindex = corpus.builder->BuildJDeweyIndex();
    // EncodedListBytes uses kAuto; re-measure per forced codec here.
    uint64_t delta_total = 0, rle_total = 0, gvb_total = 0, auto_total = 0;
    for (const std::string& term : jindex.terms()) {
      const xtopk::JDeweyList* list = jindex.GetList(term);
      for (const xtopk::Column& col : list->columns) {
        delta_total +=
            xtopk::EncodedColumnSize(col, xtopk::ColumnCodec::kDelta);
        rle_total +=
            xtopk::EncodedColumnSize(col, xtopk::ColumnCodec::kRunLength);
        gvb_total +=
            xtopk::EncodedColumnSize(col, xtopk::ColumnCodec::kGroupVarint);
        auto_total +=
            xtopk::EncodedColumnSize(col, xtopk::ColumnCodec::kAuto);
      }
    }
    std::printf("inverted-list columns, DBLP-like corpus:\n");
    std::printf("  forced delta       %s  (legacy read-only codec)\n",
                xtopk::HumanBytes(delta_total).c_str());
    std::printf("  forced run-length  %s\n",
                xtopk::HumanBytes(rle_total).c_str());
    std::printf("  forced gvb         %s  (~30%% over delta, buys the\n"
                "                     vector decode + block skipping)\n",
                xtopk::HumanBytes(gvb_total).c_str());
    std::printf("  auto (per column)  %s  <= min(run-length, gvb)\n\n",
                xtopk::HumanBytes(auto_total).c_str());
  }
  std::printf("=== Structure-aware compression: dict + DAG on/off ===\n\n");
  xtopk::obs::MetricsRegistry::Global().ResetAll();
  RunStructureAblation("repeated", /*repeated=*/true, /*groups=*/24,
                       /*copies=*/160);
  RunStructureAblation("uniform", /*repeated=*/false, /*groups=*/24,
                       /*copies=*/160);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
