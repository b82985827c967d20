// Concurrent query serving throughput (DESIGN.md "Concurrency & caching").
//
// The paper's evaluation is single-query latency on a hot cache; this bench
// measures the orthogonal production axis: queries/sec when many independent
// queries are served concurrently from one shared read-only index. Three
// sections:
//
//   A. disk-backed serving — one DiskIndexEnv (sharded buffer pool +
//      decoded-block cache) shared by all workers, a fresh session per
//      query (the server model: global caches are long-lived, per-query
//      materialization state is ephemeral), at 1/2/4/8 threads;
//   B. decoded-block cache ablation — the same single-threaded repeated
//      workload with the cache off (byte budget 0) vs on;
//   C. in-memory Engine::RunBatch — the no-I/O upper bound.
//
// Each point emits a `BENCH {json}` line with threads / qps / cache hit
// rates so the numbers land in the BENCH_* trajectory. Scaling is bounded
// by the machine: on a single hardware thread the 2/4/8-thread points
// measure oversubscription overhead, not parallel speedup.

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/engine.h"
#include "index/disk_index.h"
#include "obs/metrics.h"
#include "obs/windowed.h"
#include "util/parallel.h"
#include "util/timer.h"
#include "workload/dblp_gen.h"

namespace {

using namespace xtopk;

constexpr size_t kRepeats = 20;  // workload = kRepeats x the distinct queries
constexpr size_t kThreadPoints[] = {1, 2, 4, 8};
constexpr size_t kPoolPages = 4096;
constexpr size_t kDecodedBudget = 64u << 20;

struct Workload {
  XmlTree tree;
  std::vector<std::vector<std::string>> queries;  // repeated, interleaved
};

Workload BuildWorkload() {
  DblpGenOptions gen;
  gen.num_conferences = 50;
  gen.years_per_conference = 10;
  gen.papers_per_year = 60 * bench::BenchScale();
  gen.seed = 2028;
  for (uint32_t i = 0; i < 4; ++i) {
    gen.planted.push_back({"hi" + std::to_string(i), 5000, "", 0.0});
  }
  for (uint32_t f : {100u, 1000u}) {
    for (uint32_t i = 0; i < 8; ++i) {
      gen.planted.push_back(
          {"lo" + std::to_string(f) + "q" + std::to_string(i), f, "", 0.0});
    }
  }
  Workload workload;
  Timer timer;
  DblpCorpus dblp = GenerateDblp(gen);
  workload.tree = std::move(dblp.tree);
  std::fprintf(stderr, "[bench] corpus: %zu nodes (%.1fs)\n",
               workload.tree.node_count(), timer.ElapsedSeconds());

  // Distinct pool: 8 two-keyword + 8 three-keyword mixed-frequency queries,
  // interleaved so every repeat cycles through all of them (a server's
  // steady-state mix of recurring keyword lists).
  std::vector<std::vector<std::string>> distinct;
  for (uint32_t i = 0; i < 8; ++i) {
    distinct.push_back({"lo100q" + std::to_string(i),
                        "hi" + std::to_string(i % 4)});
    distinct.push_back({"lo1000q" + std::to_string(i),
                        "hi" + std::to_string(i % 4),
                        "hi" + std::to_string((i + 1) % 4)});
  }
  for (size_t r = 0; r < kRepeats; ++r) {
    for (const auto& q : distinct) workload.queries.push_back(q);
  }
  return workload;
}

/// Sums result counts — a cheap determinism fingerprint across runs.
struct RunOutcome {
  double qps = 0;
  double millis = 0;
  uint64_t result_checksum = 0;
  bool ok = true;
  /// Per-query latency percentiles, merged across workers.
  double p50_us = 0, p95_us = 0, p99_us = 0;
  /// Last-window (60s) p99 from a run-local WindowedHistogram — what a
  /// dashboard scraping /metrics would show right after this run.
  double win_p99_us = 0;
};

RunOutcome ServeDiskWorkload(const std::shared_ptr<DiskIndexEnv>& env,
                             const std::vector<std::vector<std::string>>& qs,
                             size_t threads) {
  std::vector<uint64_t> counts(qs.size(), 0);
  std::vector<char> failed(qs.size(), 0);
  // One latency histogram per worker (no cross-thread contention while
  // recording), merged after the join — the standalone-Histogram pattern.
  std::vector<obs::Histogram> latencies(threads == 0 ? 1 : threads);
  // Shared windowed view over the same latencies: exercises the concurrent
  // rotating-slot path and yields the "last 60s" p99 a scraper would see.
  obs::WindowedHistogram windowed;
  Timer timer;
  ParallelForWorkers(qs.size(), threads, [&](size_t worker, size_t i) {
    Timer query_timer;
    auto session = env->NewSession();
    JoinSearchOptions options;
    options.compute_scores = true;
    auto results = session->SearchComplete(qs[i], options);
    if (!results.ok()) {
      failed[i] = 1;
      return;
    }
    counts[i] = results->size();
    const uint64_t us = static_cast<uint64_t>(query_timer.ElapsedMicros());
    latencies[worker].Record(us);
    windowed.Record(us);
  });
  RunOutcome outcome;
  outcome.millis = timer.ElapsedMillis();
  outcome.qps = 1000.0 * static_cast<double>(qs.size()) / outcome.millis;
  for (size_t i = 0; i < qs.size(); ++i) {
    outcome.result_checksum += counts[i] * (i + 1);
    if (failed[i]) outcome.ok = false;
  }
  obs::Histogram merged;
  for (const obs::Histogram& h : latencies) merged.Merge(h);
  outcome.p50_us = merged.Percentile(0.50);
  outcome.p95_us = merged.Percentile(0.95);
  outcome.p99_us = merged.Percentile(0.99);
  outcome.win_p99_us =
      windowed.Window(obs::WindowedHistogram::kWindow60sUs).p99;
  return outcome;
}

int RunBench() {
  Workload workload = BuildWorkload();
  IndexBuilder builder(workload.tree);
  JDeweyIndex jindex = builder.BuildJDeweyIndex();
  std::string path = "/tmp/xtopk_bench_throughput.idx";
  Status s = DiskIndexWriter::Write(jindex, path);
  if (!s.ok()) {
    std::fprintf(stderr, "write: %s\n", s.ToString().c_str());
    return 1;
  }

  const size_t n = workload.queries.size();
  std::printf("=== Throughput: concurrent serving over one shared index ===\n");
  std::printf("hardware threads: %u, workload: %zu queries (%zu distinct)\n\n",
              std::thread::hardware_concurrency(), n, n / kRepeats);

  // --- Section A: disk-backed serving at 1/2/4/8 threads -----------------
  std::printf("%-8s %10s %10s %14s %16s %9s %9s %9s %11s\n", "threads",
              "qps", "ms", "pool hit rate", "decoded hit rate", "p50 us",
              "p95 us", "p99 us", "w60s p99");
  double qps_1thread = 0;
  uint64_t checksum_1thread = 0;
  for (size_t threads : kThreadPoints) {
    DiskIndexOptions options;
    options.pool_pages = kPoolPages;
    options.decoded_cache_bytes = kDecodedBudget;
    auto env = DiskIndexEnv::Open(path, options);
    if (!env.ok()) {
      std::fprintf(stderr, "open: %s\n", env.status().ToString().c_str());
      return 1;
    }
    // Warm pass (the paper reports hot-cache numbers), then measure.
    ServeDiskWorkload(*env, workload.queries, threads);
    (*env)->ResetIoStats();
    RunOutcome outcome = ServeDiskWorkload(*env, workload.queries, threads);
    if (!outcome.ok) {
      std::fprintf(stderr, "query failures at %zu threads\n", threads);
      return 1;
    }
    DiskIoStats stats = (*env)->io_stats();
    double pool_rate = bench::HitRate(stats.pool_hits, stats.pool_misses);
    double decoded_rate =
        bench::HitRate(stats.decoded_hits, stats.decoded_misses);
    std::printf(
        "%-8zu %10.1f %10.1f %14.3f %16.3f %9.0f %9.0f %9.0f %11.0f\n",
        threads, outcome.qps, outcome.millis, pool_rate, decoded_rate,
        outcome.p50_us, outcome.p95_us, outcome.p99_us, outcome.win_p99_us);
    if (threads == 1) {
      qps_1thread = outcome.qps;
      checksum_1thread = outcome.result_checksum;
    } else if (outcome.result_checksum != checksum_1thread) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: checksum %llu at %zu threads vs "
                   "%llu at 1\n",
                   (unsigned long long)outcome.result_checksum, threads,
                   (unsigned long long)checksum_1thread);
      return 1;
    }
    bench::BenchJson json("throughput");
    json.Field("mode", "disk")
        .Field("threads", threads)
        .Field("queries", n)
        .Field("qps", outcome.qps)
        .Field("speedup_vs_1t", qps_1thread > 0 ? outcome.qps / qps_1thread
                                                : 1.0)
        .Field("pool_hit_rate", pool_rate)
        .Field("decoded_hit_rate", decoded_rate)
        .Field("p50_us", outcome.p50_us)
        .Field("p95_us", outcome.p95_us)
        .Field("p99_us", outcome.p99_us)
        .Field("w60s_p99_us", outcome.win_p99_us);
    json.Emit();
  }

  // --- Section B: decoded-block cache ablation, single thread ------------
  std::printf("\n--- decoded-block cache ablation (1 thread, fresh session "
              "per query) ---\n");
  double millis_by_mode[2] = {0, 0};
  for (int enabled = 0; enabled <= 1; ++enabled) {
    DiskIndexOptions options;
    options.pool_pages = kPoolPages;
    options.decoded_cache_bytes = enabled ? kDecodedBudget : 0;
    auto env = DiskIndexEnv::Open(path, options);
    if (!env.ok()) return 1;
    ServeDiskWorkload(*env, workload.queries, 1);  // warm the buffer pool
    (*env)->ResetIoStats();
    RunOutcome outcome = ServeDiskWorkload(*env, workload.queries, 1);
    if (!outcome.ok || outcome.result_checksum != checksum_1thread) {
      std::fprintf(stderr, "decoded-cache ablation mismatch\n");
      return 1;
    }
    DiskIoStats stats = (*env)->io_stats();
    double decoded_rate =
        bench::HitRate(stats.decoded_hits, stats.decoded_misses);
    millis_by_mode[enabled] = outcome.millis;
    std::printf("cache %-4s %10.1f qps %10.1f ms   decoded hit rate %.3f\n",
                enabled ? "on" : "off", outcome.qps, outcome.millis,
                decoded_rate);
    bench::BenchJson json("throughput");
    json.Field("mode", enabled ? "decoded_on" : "decoded_off")
        .Field("threads", size_t{1})
        .Field("queries", n)
        .Field("qps", outcome.qps)
        .Field("decoded_hit_rate", decoded_rate)
        .Field("p50_us", outcome.p50_us)
        .Field("p95_us", outcome.p95_us)
        .Field("p99_us", outcome.p99_us)
        .Field("w60s_p99_us", outcome.win_p99_us);
    json.Emit();
  }
  std::printf("decoded-cache speedup: %.2fx\n",
              millis_by_mode[0] / millis_by_mode[1]);

  // --- Section C: in-memory Engine::RunBatch ------------------------------
  std::printf("\n--- in-memory Engine::RunBatch (no I/O upper bound) ---\n");
  Engine engine(workload.tree);
  std::vector<BatchQuery> batch;
  batch.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    BatchQuery query;
    query.keywords = workload.queries[i];
    query.k = i % 4 == 3 ? 10 : 0;  // mix complete + top-k queries
    batch.push_back(std::move(query));
  }
  // Per-query latency comes from the engine.query_us registry histogram:
  // snapshot around the measured run and diff the bucket counts.
  auto query_us_buckets = [] {
    std::array<uint64_t, obs::Histogram::kNumBuckets> buckets{};
    obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
    for (const auto& h : snap.histograms) {
      if (h.name == "engine.query_us") buckets = h.buckets;
    }
    return buckets;
  };
  uint64_t engine_checksum_1t = 0;
  for (size_t threads : kThreadPoints) {
    engine.RunBatch(batch, threads);  // warm-up
    auto buckets_before = query_us_buckets();
    Timer timer;
    auto results = engine.RunBatch(batch, threads);
    double millis = timer.ElapsedMillis();
    auto buckets_delta = query_us_buckets();
    for (size_t i = 0; i < buckets_delta.size(); ++i) {
      buckets_delta[i] -= buckets_before[i];
    }
    uint64_t checksum = 0;
    for (size_t i = 0; i < results.size(); ++i) {
      checksum += results[i].hits.size() * (i + 1);
    }
    if (threads == 1) {
      engine_checksum_1t = checksum;
    } else if (checksum != engine_checksum_1t) {
      std::fprintf(stderr, "RunBatch determinism violation\n");
      return 1;
    }
    double qps = 1000.0 * static_cast<double>(n) / millis;
    double p50 = obs::PercentileFromBuckets(buckets_delta, 0.50);
    double p95 = obs::PercentileFromBuckets(buckets_delta, 0.95);
    double p99 = obs::PercentileFromBuckets(buckets_delta, 0.99);
    // RunQuery also feeds the windowed engine.query_us — this is the
    // last-60s p99 a /metrics scrape would report right now (includes the
    // warm-up pass, as any live window would).
    double w60s_p99 =
        obs::MetricsRegistry::Global()
            .GetWindowedHistogram("engine.query_us")
            .Window(obs::WindowedHistogram::kWindow60sUs)
            .p99;
    std::printf("%-8zu %10.1f qps %10.1f ms   p50 %.0f us  p95 %.0f us  "
                "p99 %.0f us  w60s p99 %.0f us\n",
                threads, qps, millis, p50, p95, p99, w60s_p99);
    bench::BenchJson json("throughput");
    json.Field("mode", "engine_batch")
        .Field("threads", threads)
        .Field("queries", n)
        .Field("qps", qps)
        .Field("p50_us", p50)
        .Field("p95_us", p95)
        .Field("p99_us", p99)
        .Field("w60s_p99_us", w60s_p99);
    json.Emit();
  }

  std::remove(path.c_str());
  std::remove((path + ".manifest").c_str());
  return 0;
}

}  // namespace

int main() { return RunBench(); }
