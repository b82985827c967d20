// Deterministic tests of the query service's control plane: deadlines
// (expired-in-queue and mid-execution, on fake clocks — no sleeping),
// two-priority admission with load shedding, shutdown semantics, and the
// watermark-keyed result cache including seal/compact/ingest invalidation
// through a real UpdatableEngine.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/updatable_engine.h"
#include "serve/protocol.h"
#include "serve/query_service.h"
#include "testing/corpus.h"
#include "testing/durable.h"

namespace xtopk {
namespace serve {
namespace {

using xtopk::testing::MakeSmallCorpus;

// Manual fake clock: time moves only when the test says so.
std::atomic<uint64_t> g_manual_now{0};
uint64_t ManualNow() { return g_manual_now.load(std::memory_order_relaxed); }

// Auto-ticking fake clock: every read advances time by a fixed step. With
// a budget of N steps the deadline deterministically expires at the Nth
// clock read — which lands inside the engine once admission and dequeue
// have used their reads — reproducing "expired mid-query" without any
// real waiting.
constexpr uint64_t kTickStep = 1000;
std::atomic<uint64_t> g_auto_now{0};
uint64_t AutoTickNow() {
  return g_auto_now.fetch_add(kTickStep, std::memory_order_relaxed);
}

QueryRequest MakeRequest(uint32_t id, std::vector<std::string> keywords,
                         uint32_t k = 5,
                         Priority priority = Priority::kHigh) {
  QueryRequest request;
  request.request_id = id;
  request.keywords = std::move(keywords);
  request.k = k;
  request.priority = priority;
  return request;
}

QueryServiceOptions TestOptions() {
  QueryServiceOptions options;
  options.workers = 0;  // deterministic mode: tests step via RunOnce()
  return options;
}

class QueryServiceTest : public ::testing::Test {
 protected:
  QueryServiceTest() : tree_(MakeSmallCorpus()), engine_(tree_),
                       backend_(&engine_) {}

  XmlTree tree_;
  Engine engine_;
  EngineBackend backend_;
};

TEST_F(QueryServiceTest, ExecutesAndMatchesEngine) {
  QueryService service(&backend_, TestOptions());
  QueryResponse response =
      service.Execute(MakeRequest(1, {"xml", "data"}, 5));
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  std::vector<QueryHit> expected =
      engine_.SearchTopK({"xml", "data"}, 5, Semantics::kElca);
  ASSERT_EQ(response.hits.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(response.hits[i].node, expected[i].node);
    EXPECT_EQ(response.hits[i].score, expected[i].score);
  }
  QueryServiceStats stats = service.stats();
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.executed, 1u);
}

TEST_F(QueryServiceTest, DeadlineExpiredInQueueSkipsExecution) {
  g_manual_now.store(1000);
  QueryServiceOptions options = TestOptions();
  options.clock = &ManualNow;
  QueryService service(&backend_, options);

  QueryResponse captured;
  bool done = false;
  QueryRequest request = MakeRequest(3, {"xml", "data"});
  request.deadline_us = 500;  // expires at t=1500
  service.Submit(request, [&](QueryResponse response) {
    captured = std::move(response);
    done = true;
  });
  EXPECT_FALSE(done);  // admitted, waiting in queue

  // The queue wait eats the whole budget before a worker gets to it.
  g_manual_now.store(10000);
  EXPECT_TRUE(service.RunOnce());
  ASSERT_TRUE(done);
  EXPECT_EQ(captured.status, ResponseStatus::kDeadlineExpired);
  EXPECT_EQ(captured.request_id, 3u);
  EXPECT_TRUE(captured.hits.empty());

  QueryServiceStats stats = service.stats();
  EXPECT_EQ(stats.expired_in_queue, 1u);
  EXPECT_EQ(stats.partial, 0u);
  // The engine never ran: nothing was executed to completion and nothing
  // entered the result cache.
  EXPECT_EQ(service.result_cache().size(), 0u);
}

TEST_F(QueryServiceTest, DeadlineExpiredMidExecutionYieldsPartial) {
  QueryServiceOptions options = TestOptions();
  options.clock = &AutoTickNow;
  QueryService service(&backend_, options);

  // Clock reads before the engine sees the token: AfterMicros at
  // admission, enqueue stamp, dequeue wait stamp, the expired-in-queue
  // check, and the exec-start stamp — five reads. A 7-step budget
  // survives all of them (the dequeue check sees t0+3 < t0+7) and expires
  // on the engine's own deadline checks a couple of reads later.
  QueryRequest request = MakeRequest(4, {"xml", "data"}, 5);
  request.deadline_us = 7 * kTickStep;
  QueryResponse response = service.Execute(request);
  EXPECT_EQ(response.status, ResponseStatus::kPartial);
  EXPECT_EQ(response.request_id, 4u);
  // Whatever came back is a proven prefix of the full answer.
  std::vector<QueryHit> full =
      engine_.SearchTopK({"xml", "data"}, 5, Semantics::kElca);
  ASSERT_LE(response.hits.size(), full.size());
  for (size_t i = 0; i < response.hits.size(); ++i) {
    EXPECT_EQ(response.hits[i].node, full[i].node);
    EXPECT_EQ(response.hits[i].score, full[i].score);
  }

  QueryServiceStats stats = service.stats();
  EXPECT_EQ(stats.partial, 1u);
  EXPECT_EQ(stats.expired_in_queue, 0u);
  // Partial answers must never be cached — they would poison later
  // queries that have bigger budgets.
  EXPECT_EQ(service.result_cache().size(), 0u);

  // The same query with no deadline on the same service completes fully:
  // the cache was not poisoned by the partial run.
  QueryRequest unbounded = MakeRequest(5, {"xml", "data"}, 5);
  QueryResponse complete = service.Execute(unbounded);
  EXPECT_EQ(complete.status, ResponseStatus::kOk);
  EXPECT_EQ(complete.hits.size(), full.size());
}

TEST_F(QueryServiceTest, MaxDeadlineCapsClientBudgets) {
  g_manual_now.store(0);
  QueryServiceOptions options = TestOptions();
  options.clock = &ManualNow;
  options.max_deadline_us = 1000;
  QueryService service(&backend_, options);

  QueryResponse captured;
  bool done = false;
  QueryRequest request = MakeRequest(6, {"xml"});
  request.deadline_us = 60'000'000;  // asks for a minute; capped to 1ms
  service.Submit(request, [&](QueryResponse response) {
    captured = std::move(response);
    done = true;
  });
  g_manual_now.store(2000);  // past the cap, far before the minute
  EXPECT_TRUE(service.RunOnce());
  ASSERT_TRUE(done);
  EXPECT_EQ(captured.status, ResponseStatus::kDeadlineExpired);

  // And with no client deadline at all, the cap still applies.
  done = false;
  service.Submit(MakeRequest(7, {"xml"}), [&](QueryResponse response) {
    captured = std::move(response);
    done = true;
  });
  g_manual_now.store(10000);
  EXPECT_TRUE(service.RunOnce());
  ASSERT_TRUE(done);
  EXPECT_EQ(captured.status, ResponseStatus::kDeadlineExpired);
}

TEST_F(QueryServiceTest, ShedsWhenQueueFullWithRetryHint) {
  QueryServiceOptions options = TestOptions();
  options.max_queue_high = 2;
  options.max_queue_low = 1;
  options.retry_after_ms = 75;
  QueryService service(&backend_, options);

  std::vector<QueryResponse> inline_responses;
  auto collect = [&](QueryResponse response) {
    inline_responses.push_back(std::move(response));
  };

  // Fill both classes past their bounds. Admitted queries park in the
  // queue (no workers); everything over the bound is answered inline.
  for (uint32_t i = 0; i < 4; ++i) {
    service.Submit(MakeRequest(100 + i, {"xml"}, 3, Priority::kHigh),
                   collect);
  }
  for (uint32_t i = 0; i < 3; ++i) {
    service.Submit(MakeRequest(200 + i, {"xml"}, 3, Priority::kLow),
                   collect);
  }

  // 2 high + 2 low were shed, each with the retry hint, immediately.
  ASSERT_EQ(inline_responses.size(), 4u);
  for (const QueryResponse& response : inline_responses) {
    EXPECT_EQ(response.status, ResponseStatus::kShedOverload);
    EXPECT_EQ(response.retry_after_ms, 75u);
  }
  EXPECT_EQ(inline_responses[0].request_id, 102u);
  EXPECT_EQ(inline_responses[1].request_id, 103u);
  EXPECT_EQ(inline_responses[2].request_id, 201u);
  EXPECT_EQ(inline_responses[3].request_id, 202u);

  QueryServiceStats stats = service.stats();
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.shed_high, 2u);
  EXPECT_EQ(stats.shed_low, 2u);
  EXPECT_EQ(stats.queue_depth_high, 2u);
  EXPECT_EQ(stats.queue_depth_low, 1u);

  // Answer the still-queued admissions before `inline_responses` (declared
  // after the service) goes out of scope; the destructor would otherwise
  // invoke `collect` against a dead vector.
  service.Stop();
  EXPECT_EQ(inline_responses.size(), 7u);
}

TEST_F(QueryServiceTest, HighPriorityDrainsBeforeLow) {
  QueryService service(&backend_, TestOptions());
  std::vector<uint32_t> completion_order;
  auto track = [&](QueryResponse response) {
    completion_order.push_back(response.request_id);
  };

  // Interleave admissions: low, high, low, high.
  service.Submit(MakeRequest(1, {"xml"}, 2, Priority::kLow), track);
  service.Submit(MakeRequest(2, {"xml"}, 2, Priority::kHigh), track);
  service.Submit(MakeRequest(3, {"xml"}, 2, Priority::kLow), track);
  service.Submit(MakeRequest(4, {"xml"}, 2, Priority::kHigh), track);

  while (service.RunOnce()) {
  }
  // Both high-priority queries finish before any low-priority one.
  ASSERT_EQ(completion_order.size(), 4u);
  EXPECT_EQ(completion_order[0], 2u);
  EXPECT_EQ(completion_order[1], 4u);
  EXPECT_EQ(completion_order[2], 1u);
  EXPECT_EQ(completion_order[3], 3u);
}

TEST_F(QueryServiceTest, SyntheticOverloadShedsLowWhileHighStaysBounded) {
  // 2x synthetic overload: 16 arrivals against 10 queue slots. The low
  // class must absorb the shedding; every high-priority query is
  // admitted and completes within max_queue_high service steps — its
  // wait is bounded by its own class depth, not the low backlog.
  QueryServiceOptions options = TestOptions();
  options.max_queue_high = 8;
  options.max_queue_low = 2;
  QueryService service(&backend_, options);

  std::vector<uint32_t> completed;
  uint64_t shed_low = 0, shed_high = 0;
  auto track = [&](QueryResponse response) {
    if (response.status == ResponseStatus::kShedOverload) {
      (response.request_id < 100 ? shed_high : shed_low) += 1;
    } else {
      completed.push_back(response.request_id);
    }
  };
  for (uint32_t i = 0; i < 8; ++i) {
    service.Submit(MakeRequest(i, {"xml"}, 2, Priority::kHigh), track);
    service.Submit(MakeRequest(100 + i, {"xml"}, 2, Priority::kLow), track);
  }
  EXPECT_EQ(shed_high, 0u);
  EXPECT_EQ(shed_low, 6u);

  while (service.RunOnce()) {
  }
  // Each RunOnce completes exactly one query, so a query's position in
  // `completed` is the step it finished at. The first 8 completions are
  // the highs: the slowest high waited at most max_queue_high service
  // steps — bounded by its own class depth, never by the low backlog.
  ASSERT_EQ(completed.size(), 10u);  // 8 high + the 2 admitted low
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_LT(completed[i], 100u) << "high must drain first";
  }

  QueryServiceStats stats = service.stats();
  EXPECT_EQ(stats.shed_low, 6u);
  EXPECT_EQ(stats.shed_high, 0u);
  EXPECT_EQ(stats.executed, 10u);
}

TEST_F(QueryServiceTest, PingAnswersInlineWithoutAdmission) {
  QueryService service(&backend_, TestOptions());
  QueryRequest ping;
  ping.request_id = 9;
  ping.op = RequestOp::kPing;
  bool done = false;
  service.Submit(ping, [&](QueryResponse response) {
    EXPECT_EQ(response.status, ResponseStatus::kOk);
    EXPECT_EQ(response.request_id, 9u);
    done = true;
  });
  EXPECT_TRUE(done);  // no queue involved
  EXPECT_EQ(service.stats().admitted, 0u);
}

TEST_F(QueryServiceTest, StopAnswersQueuedAndRejectsNew) {
  QueryService service(&backend_, TestOptions());
  std::vector<QueryResponse> responses;
  auto collect = [&](QueryResponse response) {
    responses.push_back(std::move(response));
  };
  service.Submit(MakeRequest(1, {"xml"}), collect);
  service.Submit(MakeRequest(2, {"xml"}, 3, Priority::kLow), collect);

  service.Stop();
  ASSERT_EQ(responses.size(), 2u);
  for (const QueryResponse& response : responses) {
    EXPECT_EQ(response.status, ResponseStatus::kShuttingDown);
  }

  // Submissions after Stop answer kShuttingDown inline.
  service.Submit(MakeRequest(3, {"xml"}), collect);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses.back().status, ResponseStatus::kShuttingDown);
  EXPECT_EQ(responses.back().request_id, 3u);
}

TEST_F(QueryServiceTest, RepeatQueryHitsResultCache) {
  QueryService service(&backend_, TestOptions());
  QueryResponse first = service.Execute(MakeRequest(1, {"xml", "data"}, 4));
  ASSERT_EQ(first.status, ResponseStatus::kOk);
  // Different request_id, same normalized query: served from cache.
  QueryResponse second = service.Execute(MakeRequest(2, {"xml", "data"}, 4));
  ASSERT_EQ(second.status, ResponseStatus::kOk);
  ASSERT_EQ(second.hits.size(), first.hits.size());
  for (size_t i = 0; i < first.hits.size(); ++i) {
    EXPECT_EQ(second.hits[i].node, first.hits[i].node);
    EXPECT_EQ(second.hits[i].score, first.hits[i].score);
  }
  QueryServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);

  // Normalization is part of the key: a query that normalizes to the same
  // keywords ("XML" -> "xml") is the same cache entry.
  QueryResponse third = service.Execute(MakeRequest(3, {"XML", "DATA"}, 4));
  EXPECT_EQ(service.stats().cache_hits, 2u);
  EXPECT_EQ(third.hits.size(), first.hits.size());
}

// -------- watermark invalidation through a real UpdatableEngine --------

class UpdatableServiceTest : public ::testing::Test {
 protected:
  UpdatableServiceTest()
      : dir_("serve_watermark"),
        engine_(xtopk::testing::OpenDurableNoBackground(MakeSmallCorpus(),
                                                        dir_.path())),
        backend_(engine_.get()) {}

  void SetUp() override { ASSERT_NE(engine_, nullptr); }

  xtopk::testing::ScopedDataDir dir_;
  std::unique_ptr<UpdatableEngine> engine_;
  UpdatableBackend backend_;
};

TEST_F(UpdatableServiceTest, IngestInvalidatesCachedResults) {
  QueryService service(&backend_, TestOptions());
  QueryRequest request = MakeRequest(1, {"xml", "data"}, 10);

  QueryResponse before = service.Execute(request);
  ASSERT_EQ(before.status, ResponseStatus::kOk);
  service.Execute(request);
  EXPECT_EQ(service.stats().cache_hits, 1u);  // cached while unchanged

  // Ingest a document that adds answers. The ingest only dirties the
  // memtable — the watermark discipline must still see a new version and
  // turn every cached entry into a silent miss.
  XmlTree doc;
  NodeId root = doc.CreateRoot("paper");
  doc.AppendText(root, "xml data xml data");
  engine_->AddDocument("fresh", doc);

  QueryResponse after = service.Execute(request);
  ASSERT_EQ(after.status, ResponseStatus::kOk);
  EXPECT_EQ(service.stats().cache_hits, 1u);  // no stale hit
  EXPECT_GT(after.hits.size(), before.hits.size())
      << "post-ingest answer must include the new document";

  // And the new answer is itself cached at the new watermark.
  service.Execute(request);
  EXPECT_EQ(service.stats().cache_hits, 2u);
}

TEST_F(UpdatableServiceTest, SealAndCompactInvalidateCachedResults) {
  QueryService service(&backend_, TestOptions());
  QueryRequest request = MakeRequest(1, {"xml", "data"}, 10);

  // Put something in the memtable so SealMemtable has work.
  XmlTree doc;
  NodeId root = doc.CreateRoot("paper");
  doc.AppendText(root, "xml data");
  engine_->AddDocument("d1", doc);

  QueryResponse before = service.Execute(request);
  ASSERT_EQ(before.status, ResponseStatus::kOk);
  service.Execute(request);
  ASSERT_EQ(service.stats().cache_hits, 1u);

  ASSERT_TRUE(engine_->SealMemtable().ok());
  QueryResponse after_seal = service.Execute(request);
  ASSERT_EQ(after_seal.status, ResponseStatus::kOk);
  EXPECT_EQ(service.stats().cache_hits, 1u);  // seal invalidated
  // Sealing must not change answers, only the index layout.
  ASSERT_EQ(after_seal.hits.size(), before.hits.size());
  for (size_t i = 0; i < before.hits.size(); ++i) {
    EXPECT_EQ(after_seal.hits[i].node, before.hits[i].node);
    EXPECT_EQ(after_seal.hits[i].score, before.hits[i].score);
  }

  // A second sealed segment, then compaction; each bumps the version.
  XmlTree doc2;
  NodeId root2 = doc2.CreateRoot("paper");
  doc2.AppendText(root2, "xml data data");
  engine_->AddDocument("d2", doc2);
  ASSERT_TRUE(engine_->SealMemtable().ok());
  QueryResponse after_second = service.Execute(request);
  ASSERT_EQ(after_second.status, ResponseStatus::kOk);

  uint64_t hits_before_compact = service.stats().cache_hits;
  ASSERT_TRUE(engine_->Compact().ok());
  QueryResponse after_compact = service.Execute(request);
  ASSERT_EQ(after_compact.status, ResponseStatus::kOk);
  EXPECT_EQ(service.stats().cache_hits, hits_before_compact)
      << "compaction must invalidate, not serve stale";
  // Compaction preserves answers bit for bit.
  ASSERT_EQ(after_compact.hits.size(), after_second.hits.size());
  for (size_t i = 0; i < after_second.hits.size(); ++i) {
    EXPECT_EQ(after_compact.hits[i].node, after_second.hits[i].node);
    EXPECT_EQ(after_compact.hits[i].score, after_second.hits[i].score);
  }
}

}  // namespace
}  // namespace serve
}  // namespace xtopk
