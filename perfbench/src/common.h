#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "spans.h"
#include "stats.h"
#include "util/rng.h"
#include "workload/query_gen.h"
#include "xml/xml_tree.h"

namespace perfbench {

/// What main() hands every workload.
struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Working directory inside the checkout (durable data directories, the
  /// traced run's span file).
  std::string work_dir;
};

/// One measured number with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// A workload's outcome. `end_to_end` is filled by every run; `layers`
/// only by traced runs.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Set when an answer check or a benchmark invariant failed in a way
  /// that is not attributable to one operation.
  bool broken = false;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> layers;

  /// Counts one operation; `ok` false marks it failed.
  void Count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void EndToEnd(const std::string& name, double value, const char* unit) {
    end_to_end[name] = {value, unit};
  }
  void Layer(const std::string& name, double value, const char* unit) {
    layers[name] = {value, unit};
  }
};

/// End-to-end figures of one window of a timed phase: one whole pass of
/// engine_topk, one time slice of serve_cached.
struct WindowFigures {
  double topk_p50_us = 0.0;
  double topk_p90_us = 0.0;
  double complete_p50_us = 0.0;
  double qps = 0.0;
};

/// Figures of one window from its samples (percentile rule applies).
WindowFigures FiguresOf(const std::vector<double>& topk_us,
                        const std::vector<double>& complete_us, double qps);

/// Reports the best window of a run per metric — the lowest latencies and
/// the highest qps (best of N): contention from outside the process comes
/// in bursts of seconds and only slows windows, so the best window moves
/// far less between runs than the run as a whole does.
void ReportBestWindow(const std::vector<WindowFigures>& windows,
                      RunResult* result);

/// For workloads whose windows repeat one fixed sequence of calls
/// (engine_topk passes, durable_ingest episodes): the latencies are
/// percentiles over the calls of each call's fastest repeat in the run;
/// `qps` is the best window's. A burst of outside load slows some repeats
/// of a call and not others. A window's p90 rests on its few dozen slowest
/// calls and follows whichever bursts hit them; the p90 of fastest repeats
/// does not.
void ReportFastestRepeats(const std::vector<WindowFigures>& windows,
                          const std::vector<double>& topk_fastest_us,
                          const std::vector<double>& complete_fastest_us,
                          RunResult* result);

/// The end-to-end metrics every workload reports (name, unit), in the
/// order of BENCHMARK.json.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();

/// The per-layer metrics every traced run reports (name, unit). A layer a
/// workload never exercises reads 0.
const std::vector<std::pair<std::string, std::string>>& LayerMetrics();

/// The corpus of engine_topk and serve_cached, and durable_ingest's base:
/// GenerateDblp with default options (20k papers, ~100k nodes). It does not
/// depend on the seed; the seed draws queries and the ingest stream.
std::unique_ptr<xtopk::XmlTree> DefaultCorpus();

/// Set-ups per run; setup_s is their median. One sub-second set-up varies
/// by tens of percent between runs (the first of a process also pays for
/// fresh pages), the median of five far less.
inline constexpr int kSetupRepeats = 5;

/// Builds an Engine over `tree` kSetupRepeats times and keeps the last
/// one; `*build_s` receives the median construction time.
std::unique_ptr<xtopk::Engine> BuildEngine(const xtopk::XmlTree& tree,
                                           double* build_s);

using Query = std::vector<std::string>;

/// `count` k-keyword queries, one keyword from `first` and k-1 from `rest`
/// (QueryGenerator::MixedFrequencyQueries), drawn stratified: each band is
/// cut into `strata` log-spaced sub-bands and every pair of sub-bands gets
/// its share of `count` in proportion to the terms it holds. The mix of
/// frequencies is then the same for every seed, and only which terms
/// fill it changes, so a query pool's cost moves far less between seeds.
/// The result is shuffled.
std::vector<Query> StratifiedQueries(xtopk::QueryGenerator* gen, size_t count,
                                     size_t k, xtopk::FrequencyBand first,
                                     xtopk::FrequencyBand rest, size_t strata,
                                     uint64_t seed);

/// Reportable percentile or a benchmark failure: the run aborts with a
/// message when `samples` is too small for `q` (see Percentile).
double RequirePercentile(const std::vector<double>& samples, double q,
                         const char* what);

/// Resident set size of this process in MiB (VmRSS).
double ResidentMiB();

/// Total bytes of the regular files directly inside `dir`.
uint64_t DirectoryBytes(const std::string& dir);

/// Per-file sizes of `dir` (name -> bytes).
std::map<std::string, uint64_t> FileSizes(const std::string& dir);

/// Bytes that appeared between two FileSizes snapshots: new files count
/// whole, grown files count their growth, shrunk or deleted files nothing.
uint64_t BytesAdded(const std::map<std::string, uint64_t>& before,
                    const std::map<std::string, uint64_t>& after);

/// 64-bit FNV-1a digest over every field of a hit list, scores by their
/// bit pattern. Works for QueryHit and serve::ResponseHit alike, so an
/// in-process answer and a wire answer compare bit for bit.
template <typename Hit>
uint64_t HitsDigest(const std::vector<Hit>& hits) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* data, size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  for (const Hit& hit : hits) {
    uint32_t node = hit.node;
    uint32_t level = hit.level;
    uint64_t score_bits = 0;
    std::memcpy(&score_bits, &hit.score, sizeof(score_bits));
    uint64_t sizes[2] = {hit.tag.size(), hit.snippet.size()};
    mix(&node, sizeof(node));
    mix(&level, sizeof(level));
    mix(&score_bits, sizeof(score_bits));
    mix(sizes, sizeof(sizes));
    mix(hit.tag.data(), hit.tag.size());
    mix(hit.snippet.data(), hit.snippet.size());
  }
  return h;
}

/// Fraction of the traced run's timed phase spent recording spans: the
/// measured cost of one SpanRecorder::Add times the spans recorded inside
/// the phase, over the phase's wall time, in percent.
double TraceOverheadPct(size_t spans_in_phase, double phase_us);

/// Writes the traced run's spans and layer summary to
/// `<work_dir>/trace_<workload>.json` and fills the `share.*` layer
/// metrics: each layer's summed span time over `e2e_us`.
void FinishTrace(const RunConfig& config, const std::string& workload,
                 const SpanRecorder& spans, double e2e_us, RunResult* result);

/// Fisher-Yates shuffle driven by a seeded generator.
template <typename T>
void Shuffle(std::vector<T>* items, uint64_t seed) {
  xtopk::Rng rng(seed);
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng.NextBounded(i)]);
  }
}

RunResult RunEngineTopK(const RunConfig& config);
RunResult RunDurableIngest(const RunConfig& config);
RunResult RunServeCached(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
