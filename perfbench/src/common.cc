#include "common.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "workload/dblp_gen.h"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"topk_p50_us", "us"},     {"topk_p90_us", "us"}, {"complete_p50_us", "us"},
      {"qps", "1/s"},            {"setup_s", "s"},      {"rss_mb", "MiB"},
  };
  return kMetrics;
}

namespace {

/// Span names whose summed time is reported as a share of end-to-end time.
const char* const kShareLayers[] = {
    "xml.parse",         "index.add_doc",     "index.seal",
    "core.compact",      "index.refresh",     "core.durable_search",
    "core.normalize",    "core.plan",         "core.topk_search",
    "core.join_search",  "core.materialize",  "serve.queue_wait",
    "serve.exec",        "serve.return",      "serve.hit",
};

}  // namespace

const std::vector<std::pair<std::string, std::string>>& LayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = [] {
    std::vector<std::pair<std::string, std::string>> m = {
        {"xml.parse_us", "us"},
        {"index.build_s", "s"},
        {"index.open_s", "s"},
        {"index.add_doc_us", "us"},
        {"index.seal_ms", "ms"},
        {"index.refresh_p50_us", "us"},
        {"index.refresh_p90_us", "us"},
        {"index.segments_at_query", "count"},
        {"index.memtable_refreshes", "count"},
        {"core.normalize_us", "us"},
        {"core.plan_us", "us"},
        {"core.topk_search_p50_us", "us"},
        {"core.topk_search_p99_us", "us"},
        {"core.join_search_p50_us", "us"},
        {"core.join_search_p99_us", "us"},
        {"core.materialize_us", "us"},
        {"core.topk_entries_read", "count"},
        {"core.topk_results_per_entry", "ratio"},
        {"core.topk_star_column_share", "ratio"},
        {"core.join_candidates_per_result", "ratio"},
        {"core.erasure_touches", "count"},
        {"core.compact_ms", "ms"},
        {"core.compact_rounds", "count"},
        {"storage.write_amp", "ratio"},
        {"storage.space_amp", "ratio"},
        {"storage.pages_read_per_query", "count"},
        {"storage.bytes_decoded_per_query", "bytes"},
        {"storage.cache_hit_ratio", "ratio"},
        {"serve.exec_p50_us", "us"},
        {"serve.exec_p99_us", "us"},
        {"serve.queue_wait_us", "us"},
        {"serve.return_us", "us"},
        {"serve.hit_rtt_us", "us"},
        {"serve.cache_hit_ratio", "ratio"},
        {"ingest.docs_per_s", "1/s"},
        {"trace.overhead_pct", "%"},
        {"trace.topk_p50_us", "us"},
    };
    for (const char* layer : kShareLayers) {
      m.push_back({std::string("share.") + layer, "ratio"});
    }
    return m;
  }();
  return kMetrics;
}

std::unique_ptr<xtopk::XmlTree> DefaultCorpus() {
  return std::make_unique<xtopk::XmlTree>(
      xtopk::GenerateDblp(xtopk::DblpGenOptions{}).tree);
}

std::unique_ptr<xtopk::Engine> BuildEngine(const xtopk::XmlTree& tree,
                                           double* build_s) {
  std::vector<double> seconds;
  std::unique_ptr<xtopk::Engine> engine;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    engine.reset();
    const double start = NowUs();
    engine = std::make_unique<xtopk::Engine>(tree);
    seconds.push_back((NowUs() - start) / 1e6);
  }
  *build_s = Median(seconds);
  return engine;
}

namespace {

/// `band` cut into `strata` log-spaced, adjacent sub-bands.
std::vector<xtopk::FrequencyBand> SubBands(xtopk::FrequencyBand band,
                                           size_t strata) {
  std::vector<xtopk::FrequencyBand> out;
  const double ratio = static_cast<double>(band.hi) / band.lo;
  uint32_t lo = band.lo;
  for (size_t t = 1; t <= strata; ++t) {
    const uint32_t edge =
        t == strata ? band.hi + 1
                    : static_cast<uint32_t>(std::lround(
                          band.lo * std::pow(ratio, static_cast<double>(t) / strata)));
    if (edge > lo) out.push_back({lo, edge - 1});
    lo = std::max(lo, edge);
  }
  return out;
}

}  // namespace

std::vector<Query> StratifiedQueries(xtopk::QueryGenerator* gen, size_t count,
                                     size_t k, xtopk::FrequencyBand first,
                                     xtopk::FrequencyBand rest, size_t strata,
                                     uint64_t seed) {
  struct Cell {
    xtopk::FrequencyBand first, rest;
    double quota = 0.0;
    size_t count = 0;
  };
  std::vector<Cell> cells;
  double terms = 0.0;
  for (const auto& f : SubBands(first, strata)) {
    for (const auto& r : SubBands(rest, strata)) {
      const double weight = static_cast<double>(gen->BandSize(f)) *
                            static_cast<double>(gen->BandSize(r));
      cells.push_back({f, r, weight});
      terms += weight;
    }
  }
  // Largest-remainder apportionment of `count` over the cells.
  size_t given = 0;
  for (Cell& c : cells) {
    c.quota = terms == 0.0 ? 0.0 : c.quota / terms * static_cast<double>(count);
    c.count = static_cast<size_t>(c.quota);
    given += c.count;
  }
  std::vector<size_t> order(cells.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return cells[a].quota - cells[a].count > cells[b].quota - cells[b].count;
  });
  for (size_t i = 0; given < count && i < order.size(); ++i, ++given) {
    ++cells[order[i]].count;
  }
  std::vector<Query> queries;
  for (const Cell& c : cells) {
    for (Query& q : gen->MixedFrequencyQueries(c.count, k, c.first, c.rest)) {
      queries.push_back(std::move(q));
    }
  }
  Shuffle(&queries, seed);
  return queries;
}

double RequirePercentile(const std::vector<double>& samples, double q,
                         const char* what) {
  std::optional<double> value = Percentile(samples, q);
  if (!value) {
    std::fprintf(stderr,
                 "perfbench: %s: %zu samples are too few for p%g "
                 "(need %zu beyond it)\n",
                 what, samples.size(), q * 100.0, kMinTailSamples);
    std::exit(2);
  }
  return *value;
}

WindowFigures FiguresOf(const std::vector<double>& topk_us,
                        const std::vector<double>& complete_us, double qps) {
  WindowFigures f;
  f.topk_p50_us = RequirePercentile(topk_us, 0.5, "topk");
  f.topk_p90_us = RequirePercentile(topk_us, 0.9, "topk");
  f.complete_p50_us = RequirePercentile(complete_us, 0.5, "complete");
  f.qps = qps;
  return f;
}

namespace {

WindowFigures BestOf(const std::vector<WindowFigures>& windows) {
  WindowFigures best = windows.at(0);
  for (const WindowFigures& w : windows) {
    best.topk_p50_us = std::min(best.topk_p50_us, w.topk_p50_us);
    best.topk_p90_us = std::min(best.topk_p90_us, w.topk_p90_us);
    best.complete_p50_us = std::min(best.complete_p50_us, w.complete_p50_us);
    best.qps = std::max(best.qps, w.qps);
  }
  return best;
}

void ReportFigures(const WindowFigures& best, RunResult* result) {
  result->EndToEnd("topk_p50_us", best.topk_p50_us, "us");
  result->EndToEnd("topk_p90_us", best.topk_p90_us, "us");
  result->EndToEnd("complete_p50_us", best.complete_p50_us, "us");
  result->EndToEnd("qps", best.qps, "1/s");
}

}  // namespace

void ReportBestWindow(const std::vector<WindowFigures>& windows,
                      RunResult* result) {
  ReportFigures(BestOf(windows), result);
}

void ReportFastestRepeats(const std::vector<WindowFigures>& windows,
                          const std::vector<double>& topk_fastest_us,
                          const std::vector<double>& complete_fastest_us,
                          RunResult* result) {
  ReportFigures(FiguresOf(topk_fastest_us, complete_fastest_us,
                          BestOf(windows).qps),
                result);
}

double ResidentMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::map<std::string, uint64_t> FileSizes(const std::string& dir) {
  std::map<std::string, uint64_t> sizes;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return sizes;
  while (dirent* entry = readdir(d)) {
    std::string path = dir + "/" + entry->d_name;
    struct stat st;
    if (stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
      sizes[entry->d_name] = static_cast<uint64_t>(st.st_size);
    }
  }
  closedir(d);
  return sizes;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& [name, bytes] : FileSizes(dir)) total += bytes;
  return total;
}

uint64_t BytesAdded(const std::map<std::string, uint64_t>& before,
                    const std::map<std::string, uint64_t>& after) {
  uint64_t added = 0;
  for (const auto& [name, bytes] : after) {
    auto it = before.find(name);
    const uint64_t old = it == before.end() ? 0 : it->second;
    if (bytes > old) added += bytes - old;
  }
  return added;
}

double TraceOverheadPct(size_t spans_in_phase, double phase_us) {
  // Cost of one Add on a recorder like the traced run's, median of 5.
  constexpr int kAdds = 20000;
  std::vector<double> per_add;
  for (int rep = 0; rep < 5; ++rep) {
    SpanRecorder probe(true);
    const double start = NowUs();
    for (int i = 0; i < kAdds; ++i) {
      probe.Add("probe", NowUs(), NowUs(), -1, static_cast<uint64_t>(i));
    }
    per_add.push_back((NowUs() - start) / kAdds);
  }
  return 100.0 * Ratio(Median(per_add) * static_cast<double>(spans_in_phase),
                       phase_us);
}

void FinishTrace(const RunConfig& config, const std::string& workload,
                 const SpanRecorder& spans, double e2e_us, RunResult* result) {
  const auto totals = spans.Totals();
  for (const char* layer : kShareLayers) {
    auto it = totals.find(layer);
    if (it != totals.end()) {
      result->Layer(std::string("share.") + layer,
                    Ratio(it->second.total_us, e2e_us), "ratio");
    }
  }
  const std::string path = config.work_dir + "/trace_" + workload + ".json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    result->broken = true;
    return;
  }
  std::fprintf(out, "{\"workload\":\"%s\",\"e2e_us\":%.3f,\"layers\":[",
               workload.c_str(), e2e_us);
  bool first = true;
  for (const auto& [name, t] : totals) {
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"count\":%llu,\"total_us\":%.3f,"
                 "\"self_us\":%.3f,\"share\":%.6f}",
                 first ? "" : ",", name.c_str(),
                 static_cast<unsigned long long>(t.count), t.total_us,
                 t.self_us, Ratio(t.total_us, e2e_us));
    first = false;
  }
  std::fprintf(out, "],\"spans\":[");
  first = true;
  for (const Span& s : spans.spans()) {
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                 "\"parent\":%lld,\"query_id\":%llu}",
                 first ? "" : ",", s.name, s.start_us, s.end_us,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.query_id));
    first = false;
  }
  std::fprintf(out, "]}\n");
  std::fclose(out);
  std::fprintf(stderr, "perfbench: %zu spans written to %s\n",
               spans.spans().size(), path.c_str());
  std::fprintf(stderr, "perfbench: %-22s %9s %14s %14s %8s\n", "layer", "count",
               "total_us", "self_us", "share");
  for (const auto& [name, t] : totals) {
    std::fprintf(stderr, "perfbench: %-22s %9llu %14.1f %14.1f %8.4f\n",
                 name.c_str(), static_cast<unsigned long long>(t.count),
                 t.total_us, t.self_us, Ratio(t.total_us, e2e_us));
  }
}

}  // namespace perfbench
