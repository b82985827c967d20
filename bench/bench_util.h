#ifndef XTOPK_BENCH_BENCH_UTIL_H_
#define XTOPK_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "index/index_builder.h"
#include "obs/metrics.h"
#include "util/timer.h"
#include "workload/dblp_gen.h"
#include "workload/xmark_gen.h"

namespace xtopk {
namespace bench {

/// The scaled-down stand-ins for the paper's corpora (DESIGN.md §4). The
/// paper fixes the high keyword frequency at 100k over a 496 MB DBLP; we
/// fix it at kHighFreq over a ~250k-node corpus, keeping the low/high
/// ratios of the Fig. 9/10 sweeps (1e-4 … 1e-1).
/// Multiplies the bench corpus (papers per year, items per region) —
/// export XTOPK_BENCH_SCALE=4 for a run closer to the paper's data sizes.
inline uint32_t BenchScale() {
  const char* env = std::getenv("XTOPK_BENCH_SCALE");
  if (env == nullptr) return 1;
  int v = std::atoi(env);
  return v < 1 ? 1 : static_cast<uint32_t>(v);
}

inline constexpr uint32_t kHighFreq = 20000;
inline constexpr uint32_t kLowFreqs[] = {10, 100, 1000, 10000};
inline constexpr size_t kQueriesPerPoint = 10;
inline constexpr size_t kMaxK = 5;

/// Everything the benches need, heap-held so it can be returned by value.
struct BenchCorpus {
  std::unique_ptr<XmlTree> tree;
  std::unique_ptr<IndexBuilder> builder;
};

/// DBLP-like corpus with the planted keyword pools the figure benches
/// query:
///   hi{0..7}          — frequency kHighFreq
///   lo<f>_{0..9}      — frequency f, for each f in kLowFreqs
///   eq<f>_{0..7}      — frequency f in {1000, 4000} (equal-frequency runs)
///   corr2a/corr2b     — correlated pair   (Fig. 10(b) style)
///   corr3a/b/c        — correlated triple (Fig. 10(c) style)
inline BenchCorpus BuildDblpBenchCorpus() {
  DblpGenOptions gen;
  gen.num_conferences = 50;
  gen.years_per_conference = 10;
  gen.papers_per_year = 100 * BenchScale();  // 50k papers, ~255k nodes at 1x
  gen.seed = 2026;
  for (uint32_t i = 0; i < 8; ++i) {
    gen.planted.push_back(
        {"hi" + std::to_string(i), kHighFreq, "", 0.0});
  }
  for (uint32_t f : kLowFreqs) {
    for (uint32_t i = 0; i < kQueriesPerPoint; ++i) {
      gen.planted.push_back(
          {"lo" + std::to_string(f) + "q" + std::to_string(i), f, "", 0.0});
    }
  }
  for (uint32_t f : {1000u, 4000u}) {
    for (uint32_t i = 0; i < 8; ++i) {
      gen.planted.push_back(
          {"eq" + std::to_string(f) + "q" + std::to_string(i), f, "", 0.0});
    }
  }
  gen.planted.push_back({"corr2a", 2000, "", 0.0});
  gen.planted.push_back({"corr2b", 5000, "corr2a", 0.6});
  gen.planted.push_back({"corr3a", 3000, "", 0.0});
  gen.planted.push_back({"corr3b", 2000, "corr3a", 0.6});
  gen.planted.push_back({"corr3c", 1000, "corr3b", 0.6});

  BenchCorpus corpus;
  Timer timer;
  DblpCorpus dblp = GenerateDblp(gen);
  corpus.tree = std::make_unique<XmlTree>(std::move(dblp.tree));
  std::fprintf(stderr, "[bench] DBLP-like corpus: %zu nodes (%.1fs)\n",
               corpus.tree->node_count(), timer.ElapsedSeconds());
  timer.Reset();
  corpus.builder = std::make_unique<IndexBuilder>(*corpus.tree);
  std::fprintf(stderr, "[bench] index pipeline: %.1fs\n",
               timer.ElapsedSeconds());
  return corpus;
}

/// Smaller XMark-like corpus (Table I's second column).
inline BenchCorpus BuildXmarkBenchCorpus() {
  XmarkGenOptions gen;
  gen.items_per_region = 2000 * BenchScale();  // ~100k nodes at 1x
  gen.num_people = 8000 * BenchScale();
  gen.num_open_auctions = 4000 * BenchScale();
  gen.seed = 2027;
  BenchCorpus corpus;
  XmarkCorpus xmark = GenerateXmark(gen);
  corpus.tree = std::make_unique<XmlTree>(std::move(xmark.tree));
  std::fprintf(stderr, "[bench] XMark-like corpus: %zu nodes\n",
               corpus.tree->node_count());
  corpus.builder = std::make_unique<IndexBuilder>(*corpus.tree);
  return corpus;
}

/// The Fig. 9 mixed-frequency query for point (k, low-frequency f, i):
/// one low keyword + (k-1) distinct high keywords.
inline std::vector<std::string> MixedQuery(uint32_t f, size_t k, size_t i) {
  std::vector<std::string> query = {"lo" + std::to_string(f) + "q" +
                                    std::to_string(i)};
  for (size_t j = 0; j + 1 < k; ++j) {
    query.push_back("hi" + std::to_string((i + j) % 8));
  }
  return query;
}

/// The Fig. 9(e)/(f) equal-frequency query.
inline std::vector<std::string> EqualQuery(uint32_t f, size_t k, size_t i) {
  std::vector<std::string> query;
  for (size_t j = 0; j < k; ++j) {
    query.push_back("eq" + std::to_string(f) + "q" +
                    std::to_string((i + j) % 8));
  }
  return query;
}

/// Times `fn` once after a warm-up call (the paper reports hot-cache
/// numbers), returning milliseconds.
template <typename Fn>
double TimeOnceMs(Fn&& fn) {
  fn();  // warm-up: touches the lists
  Timer timer;
  fn();
  return timer.ElapsedMillis();
}

/// One machine-readable result line of a bench: `BENCH {json}` on stdout,
/// so the driver can grep the trajectory out of the human-readable report.
/// Field order follows insertion order. The schema carries the throughput
/// dimensions (threads, qps, cache hit rates) alongside the free-form
/// per-bench fields:
///
///   BENCH {"bench":"throughput","mode":"disk","threads":4,
///          "queries":512,"qps":1234.5,"pool_hit_rate":0.998,
///          "decoded_hit_rate":0.93,"metrics":{...}}
///
/// Every line additionally carries a compact cumulative snapshot of the
/// process-wide metrics registry (zero values dropped, histograms as
/// _count/_p50/_p95/_p99), so the driver sees cache/IO/join counters
/// without per-bench plumbing. Benches that want per-section metrics call
/// MetricsRegistry::Global().ResetAll() at section start.
class BenchJson {
 public:
  explicit BenchJson(const std::string& bench) { Field("bench", bench); }

  BenchJson& Field(const std::string& key, const std::string& value) {
    Key(key);
    line_ += '"';
    line_ += value;  // bench names/modes only — no escaping needed
    line_ += '"';
    return *this;
  }
  BenchJson& Field(const std::string& key, double value) {
    Key(key);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", value);
    line_ += buf;
    return *this;
  }
  BenchJson& Field(const std::string& key, uint64_t value) {
    Key(key);
    line_ += std::to_string(value);
    return *this;
  }
  BenchJson& Field(const std::string& key, int value) {
    Key(key);
    line_ += std::to_string(value);
    return *this;
  }

  /// Prints `BENCH {...}` with the registry snapshot appended.
  void Emit() {
    std::string metrics;
    obs::MetricsRegistry::Global().Snapshot().AppendCompactJson(&metrics);
    std::printf("BENCH {%s,\"metrics\":%s}\n", line_.c_str(), metrics.c_str());
    std::fflush(stdout);
  }

 private:
  void Key(const std::string& key) {
    if (!line_.empty()) line_ += ',';
    line_ += '"';
    line_ += key;
    line_ += "\":";
  }
  std::string line_;
};

/// Hit rate helper: hits / (hits + misses), 0 when idle.
inline double HitRate(uint64_t hits, uint64_t misses) {
  uint64_t total = hits + misses;
  return total == 0 ? 0.0 : static_cast<double>(hits) / total;
}

}  // namespace bench
}  // namespace xtopk

#endif  // XTOPK_BENCH_BENCH_UTIL_H_
