// End-to-end tests of the network query service: the listener on an
// ephemeral port, concurrent clients over real sockets, and bit-identical
// results against direct Engine calls across the differential corpus
// configurations (the same seeded corpus family the storage differential
// suite sweeps).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "testing/corpus.h"
#include "testing/serve_client.h"
#include "workload/dblp_gen.h"

namespace xtopk {
namespace {

using serve::Client;
using serve::Priority;
using serve::QueryRequest;
using serve::QueryResponse;
using serve::RequestOp;
using serve::ResponseStatus;
using testing::ExpectHitsBitIdentical;
using testing::MakeCorpusSpec;
using testing::MakeCorpusTree;
using testing::MakeHighRepetitionSpec;
using testing::MakeRandomWorkload;
using testing::MakeSmallCorpus;
using testing::ServeHarness;

QueryRequest MakeRequest(const std::vector<std::string>& keywords, uint32_t k,
                         Semantics semantics) {
  QueryRequest request;
  request.request_id = 7;
  request.keywords = keywords;
  request.k = k;
  request.semantics = semantics;
  return request;
}

TEST(ServeEndToEnd, SmallCorpusTopK) {
  ServeHarness harness(MakeSmallCorpus());
  ASSERT_TRUE(harness.started());
  QueryRequest request =
      MakeRequest({"xml", "data"}, /*k=*/5, Semantics::kElca);
  QueryResponse response = harness.Call(request);
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_EQ(response.request_id, 7u);
  ExpectHitsBitIdentical(
      harness.engine().SearchTopK({"xml", "data"}, 5, Semantics::kElca),
      response.hits, "small corpus topk");
}

TEST(ServeEndToEnd, SmallCorpusCompleteSearch) {
  ServeHarness harness(MakeSmallCorpus());
  QueryRequest request =
      MakeRequest({"xml", "data"}, /*k=*/0, Semantics::kSlca);
  QueryResponse response = harness.Call(request);
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  ExpectHitsBitIdentical(
      harness.engine().Search({"xml", "data"}, Semantics::kSlca),
      response.hits, "small corpus complete");
}

TEST(ServeEndToEnd, UnknownKeywordEmptyHits) {
  ServeHarness harness(MakeSmallCorpus());
  QueryResponse response =
      harness.Call(MakeRequest({"nosuchword"}, 5, Semantics::kElca));
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_TRUE(response.hits.empty());
}

TEST(ServeEndToEnd, WideTopKRequestsMatchCompleteSearch) {
  // The protocol admits 64 keywords; the star join takes at most 31. Wider
  // top-k requests take the complete route and must return the complete
  // result's top 10 over the wire.
  DblpGenOptions gen;
  gen.num_conferences = 10;
  gen.years_per_conference = 5;
  gen.papers_per_year = 20;
  ServeHarness harness(GenerateDblp(gen).tree);
  ASSERT_TRUE(harness.started());
  std::vector<TermInfo> terms = harness.engine().builder().terms();
  std::sort(terms.begin(), terms.end(),
            [](const TermInfo& a, const TermInfo& b) {
              return a.frequency > b.frequency;
            });
  for (size_t width : {31u, 32u, 33u, 40u}) {
    std::vector<std::string> keywords;
    for (size_t i = 0; i < width; ++i) keywords.push_back(terms[i].term);
    QueryResponse response =
        harness.Call(MakeRequest(keywords, /*k=*/10, Semantics::kElca));
    EXPECT_EQ(response.status, ResponseStatus::kOk);
    std::string label = std::to_string(width) + " keywords";
    ExpectHitsBitIdentical(harness.engine().SearchTopK(keywords, 10),
                           response.hits, label);
    auto all = harness.engine().Search(keywords);
    ASSERT_EQ(response.hits.size(), std::min<size_t>(10, all.size()))
        << label;
    ASSERT_FALSE(response.hits.empty()) << label;
    for (size_t i = 0; i < response.hits.size(); ++i) {
      EXPECT_NEAR(response.hits[i].score, all[i].score, 1e-9) << label;
    }
  }
}

TEST(ServeEndToEnd, PingRoundtrip) {
  ServeHarness harness(MakeSmallCorpus());
  QueryRequest request;
  request.request_id = 42;
  request.op = RequestOp::kPing;
  QueryResponse response = harness.Call(request);
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_EQ(response.request_id, 42u);
  EXPECT_TRUE(response.hits.empty());
}

// The acceptance bar: across the differential corpus family (uniform
// random and high-repetition shapes, both semantics, varying k), served
// answers are bit-identical to in-process Engine answers.
TEST(ServeDifferential, BitIdenticalAcrossCorpusConfigs) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto spec = seed % 2 == 0 ? MakeHighRepetitionSpec(seed)
                              : MakeCorpusSpec(seed);
    ServeHarness harness(MakeCorpusTree(spec));
    ASSERT_TRUE(harness.started());

    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", harness.port()).ok());
    uint32_t id = 0;
    for (const auto& query : MakeRandomWorkload(spec, 8)) {
      QueryRequest request = MakeRequest(
          query.keywords, static_cast<uint32_t>(query.k), query.semantics);
      request.request_id = ++id;
      QueryResponse response;
      ASSERT_TRUE(client.Call(request, &response).ok());
      ASSERT_EQ(response.status, ResponseStatus::kOk);
      EXPECT_EQ(response.request_id, id);
      ExpectHitsBitIdentical(
          harness.engine().SearchTopK(query.keywords, query.k,
                                      query.semantics),
          response.hits, "seed " + std::to_string(spec.seed));
    }
  }
}

// Many clients hammering one server concurrently: every thread keeps its
// own connection and must see exactly the answers the engine gives
// in-process, regardless of interleaving.
TEST(ServeConcurrency, ConcurrentClientsBitIdentical) {
  auto spec = MakeCorpusSpec(11);
  ServeHarness harness(MakeCorpusTree(spec));
  ASSERT_TRUE(harness.started());
  auto workload = MakeRandomWorkload(spec, 6);

  // Precompute expected answers single-threaded.
  std::vector<std::vector<QueryHit>> expected;
  for (const auto& query : workload) {
    expected.push_back(harness.engine().SearchTopK(query.keywords, query.k,
                                                   query.semantics));
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 5;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Client client;
      if (!client.Connect("127.0.0.1", harness.port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        for (size_t q = 0; q < workload.size(); ++q) {
          QueryRequest request = MakeRequest(
              workload[q].keywords, static_cast<uint32_t>(workload[q].k),
              workload[q].semantics);
          request.request_id =
              static_cast<uint32_t>(t * 1000 + round * 100 + q);
          QueryResponse response;
          if (!client.Call(request, &response).ok() ||
              response.status != ResponseStatus::kOk ||
              response.request_id != request.request_id ||
              response.hits.size() != expected[q].size()) {
            failures.fetch_add(1);
            continue;
          }
          for (size_t i = 0; i < expected[q].size(); ++i) {
            if (response.hits[i].node != expected[q][i].node ||
                response.hits[i].score != expected[q][i].score) {
              failures.fetch_add(1);
            }
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

// One connection pipelining several requests before reading any response:
// responses come back correlated by request_id.
TEST(ServeConcurrency, PipelinedRequestsCorrelateByRequestId) {
  ServeHarness harness(MakeSmallCorpus());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.port()).ok());
  constexpr uint32_t kInFlight = 10;
  for (uint32_t i = 0; i < kInFlight; ++i) {
    QueryRequest request =
        MakeRequest({"xml", "data"}, 3, Semantics::kElca);
    request.request_id = 100 + i;
    ASSERT_TRUE(client.Send(request).ok());
  }
  std::vector<bool> seen(kInFlight, false);
  std::vector<QueryHit> expected =
      harness.engine().SearchTopK({"xml", "data"}, 3, Semantics::kElca);
  for (uint32_t i = 0; i < kInFlight; ++i) {
    QueryResponse response;
    ASSERT_TRUE(client.Receive(&response).ok());
    ASSERT_GE(response.request_id, 100u);
    ASSERT_LT(response.request_id, 100u + kInFlight);
    EXPECT_FALSE(seen[response.request_id - 100]);
    seen[response.request_id - 100] = true;
    EXPECT_EQ(response.status, ResponseStatus::kOk);
    ExpectHitsBitIdentical(expected, response.hits, "pipelined");
  }
}

TEST(ServeHttp, SearchReturnsJsonAndTelemetrySurfaceAnswers) {
  ServeHarness harness(MakeSmallCorpus());
  int http_status = 0;
  std::string body;
  ASSERT_TRUE(Client::HttpGet("127.0.0.1", harness.port(),
                              "/search?q=xml+data&k=3", &http_status, &body)
                  .ok());
  EXPECT_EQ(http_status, 200);
  EXPECT_NE(body.find("\"status\":\"ok\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"hits\":["), std::string::npos) << body;

  ASSERT_TRUE(Client::HttpGet("127.0.0.1", harness.port(), "/healthz",
                              &http_status, &body)
                  .ok());
  EXPECT_EQ(http_status, 200);
  EXPECT_EQ(body, "ok\n");

  ASSERT_TRUE(Client::HttpGet("127.0.0.1", harness.port(),
                              "/search?q=xml&bogus=1", &http_status, &body)
                  .ok());
  EXPECT_EQ(http_status, 400);
  EXPECT_NE(body.find("\"status\":\"bad_request\""), std::string::npos);
}

// The serve port is the one telemetry port: live metrics over a real
// socket, the histograms snapshot, and a 404 for an unknown path.
TEST(ServeHttp, TelemetryEndpointsOverTheServePort) {
  ServeHarness harness(MakeSmallCorpus());
  ASSERT_TRUE(harness.started());
  XTOPK_COUNTER("test.serve.telemetry_live").Add(1);
  int http_status = 0;
  std::string body;
  ASSERT_TRUE(Client::HttpGet("127.0.0.1", harness.port(), "/metrics",
                              &http_status, &body)
                  .ok());
  EXPECT_EQ(http_status, 200);
  EXPECT_NE(body.find("test_serve_telemetry_live"), std::string::npos);
  EXPECT_NE(body.find("# TYPE"), std::string::npos);

  ASSERT_TRUE(Client::HttpGet("127.0.0.1", harness.port(), "/vars",
                              &http_status, &body)
                  .ok());
  EXPECT_EQ(http_status, 200);
  EXPECT_NE(body.find("\"histograms\""), std::string::npos);

  ASSERT_TRUE(Client::HttpGet("127.0.0.1", harness.port(), "/missing",
                              &http_status, &body)
                  .ok());
  EXPECT_EQ(http_status, 404);
}

// The poll() fallback event loop must behave exactly like the epoll path.
TEST(ServePollFallback, QueriesAndHttpWork) {
  serve::QueryServer::Options options;
  options.force_poll = true;
  ServeHarness harness(MakeSmallCorpus(), options);
  ASSERT_TRUE(harness.started());
  QueryResponse response =
      harness.Call(MakeRequest({"xml", "data"}, 4, Semantics::kElca));
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  ExpectHitsBitIdentical(
      harness.engine().SearchTopK({"xml", "data"}, 4, Semantics::kElca),
      response.hits, "poll fallback");

  int http_status = 0;
  std::string body;
  ASSERT_TRUE(Client::HttpGet("127.0.0.1", harness.port(),
                              "/search?q=xml+data&k=2", &http_status, &body)
                  .ok());
  EXPECT_EQ(http_status, 200);
}

TEST(ServeLifecycle, StopThenRestartOnNewPort) {
  auto tree = MakeSmallCorpus();
  Engine engine(tree);
  serve::EngineBackend backend(&engine);
  auto server =
      std::make_unique<serve::QueryServer>(&backend);
  ASSERT_TRUE(server->Start());
  uint16_t old_port = server->port();
  server->Stop();

  // The port is released: a fresh server binds and serves.
  auto server2 = std::make_unique<serve::QueryServer>(&backend);
  ASSERT_TRUE(server2->Start());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server2->port()).ok());
  QueryRequest request = MakeRequest({"xml"}, 3, Semantics::kElca);
  QueryResponse response;
  ASSERT_TRUE(client.Call(request, &response).ok());
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  (void)old_port;
  server2->Stop();
}

}  // namespace
}  // namespace xtopk
