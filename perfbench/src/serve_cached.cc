// serve_cached: the socket service with its result cache in steady state.
//
// An in-process QueryServer with default options (2 workers, 1024-entry
// result cache) serves an Engine over the default corpus. Two client
// threads, each with one loopback binary-protocol connection, run a closed
// loop in two timed phases:
//
//  * top-10 phase (the first 60% of --seconds): top-10 requests only, each
//    for a query drawn Zipf(1.2) from a pool of 8000 mixed-frequency
//    queries (8x the cache capacity). It starts after a warm-up that brings
//    the cache to steady state, and gives topk_p50_us, topk_p90_us and qps.
//  * complete phase (the last 40%): complete-answer requests that walk the
//    pool's distinct queries in a seeded order, the two clients on
//    alternate entries. The cache evicts in insertion order and holds far
//    fewer entries than the walk, so every one misses: complete_p50_us is the service's round trip of a
//    complete answer computed by the engine. Drawing these Zipf instead
//    would make it the round trip of the few most popular answers, whose
//    sizes change with the seed.
//
// A ProbeBackend around the engine backend sees every cache miss. Every
// response must be bit-identical to the backend's answer for its cache key,
// and every key's backend answer to the in-process Engine's.

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve_probe.h"
#include "util/rng.h"
#include "workload/query_gen.h"
#include "workload/zipf.h"

namespace perfbench {
namespace {

using xtopk::serve::QueryRequest;
using xtopk::serve::QueryResponse;
using xtopk::serve::ResponseStatus;

constexpr size_t kPoolSize = 8000;
constexpr double kZipfTheta = 1.2;
constexpr size_t kClients = 2;
constexpr size_t kWarmupPerClient = 3000;
constexpr double kCompleteShare = 0.4;  // of --seconds, for the complete phase
constexpr double kTopKWindowSeconds = 2.5;
constexpr double kCompleteWindowSeconds = 1.25;
constexpr size_t kCheckThreads = 4;

/// What the clients are asked to send.
enum Phase : int { kWarmup, kTopK, kComplete, kStop };

/// One request as the client saw it.
struct Sample {
  uint32_t request_id = 0;
  uint32_t query = 0;
  uint32_t k = 0;
  Phase phase = kWarmup;  // the phase it was sent in
  bool ok = false;
  double send_us = 0.0;
  double recv_us = 0.0;
  uint64_t digest = 0;
};

/// The server stack; members are destroyed in reverse order, server first.
struct Stack {
  std::unique_ptr<xtopk::Engine> engine;
  std::unique_ptr<xtopk::serve::EngineBackend> backend;
  std::unique_ptr<ProbeBackend> probe;
  std::unique_ptr<xtopk::serve::QueryServer> server;
};

/// A timed phase cut into `windows` (rounded down, at least one) windows
/// of equal length, by time stamp.
struct Windows {
  double start_us = 0.0;
  double length_us = 0.0;
  size_t count = 1;

  Windows(double start, double end, double windows)
      : start_us(start),
        count(std::max<size_t>(1, static_cast<size_t>(windows))) {
    length_us = (end - start) / static_cast<double>(count);
  }
  size_t Of(double t) const {
    const double w = (t - start_us) / length_us;
    return std::min(count - 1, static_cast<size_t>(std::max(0.0, w)));
  }
};

}  // namespace

RunResult RunServeCached(const RunConfig& config) {
  RunResult result;
  std::unique_ptr<xtopk::XmlTree> tree = DefaultCorpus();

  // Set-up: index build plus server start to ready, kSetupRepeats times.
  Stack stack;
  std::vector<double> setup_s, build_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    stack.server.reset();
    stack.probe.reset();
    stack.backend.reset();
    stack.engine.reset();
    const double t0 = NowUs();
    stack.engine = std::make_unique<xtopk::Engine>(*tree);
    const double t1 = NowUs();
    stack.backend =
        std::make_unique<xtopk::serve::EngineBackend>(stack.engine.get());
    stack.probe = std::make_unique<ProbeBackend>(stack.backend.get());
    stack.server =
        std::make_unique<xtopk::serve::QueryServer>(stack.probe.get());
    std::string error;
    if (!stack.server->Start(&error)) {
      std::fprintf(stderr, "perfbench: server start failed: %s\n",
                   error.c_str());
      std::exit(2);
    }
    const double t2 = NowUs();
    setup_s.push_back((t2 - t0) / 1e6);
    build_s.push_back((t1 - t0) / 1e6);
  }
  const xtopk::Engine& engine = *stack.engine;
  const uint16_t port = stack.server->port();

  std::vector<Query> pool;
  {
    xtopk::QueryGenerator gen(engine.builder().terms(), config.seed);
    pool = StratifiedQueries(&gen, kPoolSize, 2,
                             xtopk::FrequencyBand{100, 1000},
                             xtopk::FrequencyBand{1000, 20000}, 4, config.seed);
  }
  // The complete phase's walk: the pool's distinct queries (a pool drawn
  // from small frequency bands repeats some), in a seeded order.
  std::vector<uint32_t> walk;
  {
    std::set<Query> seen;
    for (uint32_t q = 0; q < pool.size(); ++q) {
      if (seen.insert(engine.Normalize(pool[q])).second) walk.push_back(q);
    }
  }
  Shuffle(&walk, config.seed * 31ull + 7);
  std::fprintf(stderr,
               "perfbench: serve_cached: %zu nodes, %zu queries (%zu "
               "distinct), cache %zu, set-up %.3fs\n",
               tree->node_count(), pool.size(), walk.size(),
               stack.server->service().options().result_cache_capacity,
               Median(setup_s));

  std::atomic<size_t> warmed{0};
  std::atomic<int> phase{kWarmup};
  std::atomic<bool> client_error{false};
  std::vector<std::vector<Sample>> samples(kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      // A client that fails still reports itself warmed, so main never
      // waits for it.
      bool counted = false;
      auto fail = [&] {
        client_error = true;
        if (!counted) warmed.fetch_add(1);
      };
      xtopk::serve::Client client;
      if (!client.Connect("127.0.0.1", port).ok()) return fail();
      xtopk::ZipfSampler zipf(pool.size(), kZipfTheta,
                              config.seed * 1000003ull + c);
      uint32_t seq = 0;
      size_t step = c;  // this client's position in the complete walk
      for (size_t i = 0;; ++i) {
        if (i == kWarmupPerClient) {
          warmed.fetch_add(1);
          counted = true;
          while (phase.load() == kWarmup) std::this_thread::yield();
        }
        Sample s;
        s.phase = static_cast<Phase>(phase.load(std::memory_order_relaxed));
        if (s.phase == kStop) break;
        s.request_id = static_cast<uint32_t>((c + 1) << 26) | seq++;
        if (s.phase == kComplete) {
          s.k = 0;
          s.query = walk[step % walk.size()];
          step += kClients;
        } else {
          s.k = 10;
          s.query = static_cast<uint32_t>(zipf.Next());
        }
        QueryRequest request;
        request.request_id = s.request_id;
        request.k = s.k;
        request.keywords = pool[s.query];
        QueryResponse response;
        s.send_us = NowUs();
        xtopk::Status status = client.Call(request, &response);
        s.recv_us = NowUs();
        if (!status.ok()) return fail();
        s.ok = response.status == ResponseStatus::kOk &&
               response.request_id == s.request_id;
        s.digest = HitsDigest(response.hits);
        samples[c].push_back(s);
      }
    });
  }
  while (warmed.load() < kClients) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double complete_s = config.seconds * kCompleteShare;
  const double topk_s = config.seconds - complete_s;
  const xtopk::serve::QueryServiceStats before = stack.server->service().stats();
  const double topk_start = NowUs();
  phase = kTopK;
  std::this_thread::sleep_for(std::chrono::duration<double>(topk_s));
  const xtopk::serve::QueryServiceStats after = stack.server->service().stats();
  const double complete_start = NowUs();
  phase = kComplete;
  std::this_thread::sleep_for(std::chrono::duration<double>(complete_s));
  phase = kStop;
  for (std::thread& t : clients) t.join();
  const double phase_end = NowUs();
  const double rss = ResidentMiB();
  if (client_error) {
    std::fprintf(stderr, "perfbench: a client lost its connection\n");
    result.broken = true;
  }

  // Every answer a backend call produced, under its result-cache key (the
  // pool may repeat a query), with a request that asked for it.
  auto key_of = [&](uint32_t q, uint32_t k) {
    return xtopk::serve::ResultCache::Key(engine.Normalize(pool[q]),
                                          xtopk::Semantics::kElca, k);
  };
  struct Answer {
    uint64_t digest = 0;
    uint32_t query = 0;
    uint32_t k = 0;
  };
  std::map<std::string, Answer> answer;
  for (const auto& per_client : samples) {
    for (const Sample& s : per_client) {
      std::optional<ProbeBackend::Call> call = stack.probe->Find(s.request_id);
      if (!call) continue;
      auto [it, fresh] =
          answer.emplace(key_of(s.query, s.k), Answer{call->digest, s.query, s.k});
      if (!fresh && it->second.digest != call->digest) {
        std::fprintf(stderr, "perfbench: the engine answered query %u twice "
                     "differently\n", s.query);
        result.broken = true;
      }
    }
  }
  // Untimed: every key's backend answer against the in-process Engine,
  // split over kCheckThreads threads (the engine answers concurrently).
  const double check_start = NowUs();
  std::vector<const Answer*> to_check;
  for (const auto& entry : answer) to_check.push_back(&entry.second);
  std::atomic<size_t> differ{0};
  std::vector<std::thread> checkers;
  for (size_t t = 0; t < kCheckThreads; ++t) {
    checkers.emplace_back([&, t] {
      for (size_t i = t; i < to_check.size(); i += kCheckThreads) {
        const Answer& a = *to_check[i];
        const uint64_t direct =
            HitsDigest(a.k == 0 ? engine.Search(pool[a.query])
                                : engine.SearchTopK(pool[a.query], a.k));
        if (direct != a.digest) {
          std::fprintf(stderr, "perfbench: served answer to query %u (k %u) "
                       "differs from the in-process Engine\n", a.query, a.k);
          differ.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : checkers) t.join();
  if (differ.load() > 0) result.broken = true;
  std::fprintf(stderr, "perfbench: %zu distinct answers checked against the "
               "in-process Engine in %.1fs\n", answer.size(),
               (NowUs() - check_start) / 1e6);

  SpanRecorder spans(config.trace);
  // Windows by send time; qps counts top-10 receipts.
  const Windows topk_windows(topk_start, complete_start,
                             topk_s / kTopKWindowSeconds);
  const Windows complete_windows(complete_start, phase_end,
                                 complete_s / kCompleteWindowSeconds);
  std::vector<std::vector<double>> window_topk(topk_windows.count),
      window_complete(complete_windows.count);
  std::vector<double> window_done(topk_windows.count, 0.0);
  std::vector<double> exec_us, queue_us, return_us, hit_us;
  double e2e_us = 0.0;
  uint64_t timed_requests = 0, complete_hits = 0;
  for (const auto& per_client : samples) {
    for (const Sample& s : per_client) {
      auto it = answer.find(key_of(s.query, s.k));
      const bool ok = s.ok && it != answer.end() && it->second.digest == s.digest;
      if (!ok) {
        std::fprintf(stderr, "perfbench: request %u (query %u, k %u) failed: "
                     "%s\n", s.request_id, s.query, s.k,
                     !s.ok ? "status" : it == answer.end() ? "no engine answer"
                                                          : "answer differs");
      }
      if (s.phase == kWarmup) {
        if (!ok) result.Count(false);  // warm-up failures still count
        continue;
      }
      result.Count(ok);
      ++timed_requests;
      const double rtt = s.recv_us - s.send_us;
      e2e_us += rtt;
      const bool topk = s.phase == kTopK;
      if (topk) {
        window_topk[topk_windows.Of(s.send_us)].push_back(rtt);
        window_done[topk_windows.Of(s.recv_us)] += 1.0;
      } else {
        window_complete[complete_windows.Of(s.send_us)].push_back(rtt);
      }
      const int64_t parent =
          spans.Add("e2e.request", s.send_us, s.recv_us, -1, s.request_id);
      std::optional<ProbeBackend::Call> call = stack.probe->Find(s.request_id);
      if (call) {
        spans.Add("serve.queue_wait", s.send_us, call->start_us, parent, s.request_id);
        spans.Add("serve.exec", call->start_us, call->end_us, parent, s.request_id);
        spans.Add("serve.return", call->end_us, s.recv_us, parent, s.request_id);
        if (topk) {
          exec_us.push_back(call->end_us - call->start_us);
          queue_us.push_back(call->start_us - s.send_us);
          return_us.push_back(s.recv_us - call->end_us);
        }
      } else {
        spans.Add("serve.hit", s.send_us, s.recv_us, parent, s.request_id);
        if (topk) hit_us.push_back(rtt);
        complete_hits += topk ? 0 : 1;
      }
    }
  }
  // ReportBestWindow takes each metric's best over the windows on its own,
  // so pairing the two phases' windows by index (the shorter list repeats
  // its last window) changes no reported figure.
  std::vector<WindowFigures> figures;
  const size_t windows = std::max(topk_windows.count, complete_windows.count);
  for (size_t w = 0; w < windows; ++w) {
    const size_t tw = std::min(w, topk_windows.count - 1);
    const size_t cw = std::min(w, complete_windows.count - 1);
    figures.push_back(FiguresOf(window_topk[tw], window_complete[cw],
                                window_done[tw] / (topk_windows.length_us / 1e6)));
  }
  for (size_t w = 0; w < topk_windows.count; ++w) {
    const WindowFigures& f = figures[w];
    std::fprintf(stderr, "perfbench: top-10 window %zu/%zu: p50 %.0fus "
                 "p90 %.0fus, %.0f qps\n", w + 1, topk_windows.count,
                 f.topk_p50_us, f.topk_p90_us, f.qps);
  }
  for (size_t w = 0; w < complete_windows.count; ++w) {
    std::fprintf(stderr, "perfbench: complete window %zu/%zu: p50 %.0fus\n",
                 w + 1, complete_windows.count, figures[w].complete_p50_us);
  }
  ReportBestWindow(figures, &result);
  result.EndToEnd("setup_s", Median(setup_s), "s");
  result.EndToEnd("rss_mb", rss, "MiB");

  // Cache hit share of the top-10 phase.
  const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const double misses =
      static_cast<double>(after.cache_misses - before.cache_misses);
  std::fprintf(stderr,
               "perfbench: serve_cached: %llu timed requests, top-10 cache hit "
               "ratio %.4f, %llu complete requests hit the cache\n",
               static_cast<unsigned long long>(timed_requests),
               Ratio(hits, hits + misses),
               static_cast<unsigned long long>(complete_hits));
  if (config.trace) {
    result.Layer("index.build_s", Median(build_s), "s");
    result.Layer("serve.exec_p50_us", RequirePercentile(exec_us, 0.5, "exec"), "us");
    result.Layer("serve.exec_p99_us", RequirePercentile(exec_us, 0.99, "exec"), "us");
    result.Layer("serve.queue_wait_us", RequirePercentile(queue_us, 0.5, "queue_wait"), "us");
    result.Layer("serve.return_us", RequirePercentile(return_us, 0.5, "return"), "us");
    result.Layer("serve.hit_rtt_us", RequirePercentile(hit_us, 0.5, "hit"), "us");
    result.Layer("serve.cache_hit_ratio", Ratio(hits, hits + misses), "ratio");
    // Spans are assembled after the timed phases from timestamps the
    // untraced run takes too; the phases themselves record none.
    result.Layer("trace.overhead_pct", 0.0, "%");
    FinishTrace(config, "serve_cached", spans, e2e_us, &result);
  }
  return result;
}

}  // namespace perfbench
