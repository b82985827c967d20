#include "serve/query_service.h"

#include <algorithm>
#include <condition_variable>
#include <utility>

#include "obs/metrics.h"
#include "obs/windowed.h"

namespace xtopk {
namespace serve {

namespace {

BatchQuery ToBatchQuery(const QueryRequest& request, DeadlineToken deadline) {
  return {.keywords = request.keywords,
          .k = request.k,
          .semantics = request.semantics,
          .deadline = deadline};
}

/// The one BatchQueryResult -> wire conversion of both backends.
Status ToResponseHits(BatchQueryResult result,
                      std::vector<ResponseHit>* hits) {
  hits->clear();
  hits->reserve(result.hits.size());
  for (QueryHit& hit : result.hits) {
    hits->push_back(ResponseHit{hit.node, hit.level, hit.score,
                                std::move(hit.tag), std::move(hit.snippet)});
  }
  return result.status;
}

/// Per-status response counters carry the status in the metric name, so
/// the handle must be resolved per call (the XTOPK_COUNTER macro's static
/// handle would bind the first status it ever saw).
void CountResponse(ResponseStatus status) {
  std::string name = "server.responses.";
  name += StatusName(status);
  obs::MetricsRegistry::Global().GetCounter(name).Add(1);
}

}  // namespace

Status EngineBackend::RunQuery(const QueryRequest& request,
                               DeadlineToken deadline,
                               std::vector<ResponseHit>* hits) {
  return ToResponseHits(engine_->Run(ToBatchQuery(request, deadline)), hits);
}

std::vector<std::string> EngineBackend::Normalize(
    const std::vector<std::string>& keywords) {
  return engine_->Normalize(keywords);
}

Status UpdatableBackend::RunQuery(const QueryRequest& request,
                                  DeadlineToken deadline,
                                  std::vector<ResponseHit>* hits) {
  BatchQueryResult result;
  {
    std::lock_guard<std::mutex> lock(mu_);
    result = engine_->Run(ToBatchQuery(request, deadline));
  }
  return ToResponseHits(std::move(result), hits);
}

std::vector<std::string> UpdatableBackend::Normalize(
    const std::vector<std::string>& keywords) {
  std::lock_guard<std::mutex> lock(mu_);
  return engine_->Normalize(keywords);
}

uint64_t UpdatableBackend::Watermark() {
  std::lock_guard<std::mutex> lock(mu_);
  return engine_->plan_watermark();
}

QueryService::QueryService(ServeBackend* backend, QueryServiceOptions options)
    : backend_(backend),
      options_(options),
      cache_(options.result_cache_capacity) {
  workers_.reserve(options_.workers);
  for (size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryService::~QueryService() { Stop(); }

uint64_t QueryService::NowUs() const {
  DeadlineToken::ClockFn clock =
      options_.clock != nullptr ? options_.clock : &DeadlineToken::NowMicros;
  return clock();
}

DeadlineToken QueryService::MakeDeadline(uint64_t budget_us) const {
  if (budget_us == 0) budget_us = options_.default_deadline_us;
  if (options_.max_deadline_us != 0 && budget_us != 0) {
    budget_us = std::min(budget_us, options_.max_deadline_us);
  } else if (options_.max_deadline_us != 0 && budget_us == 0) {
    budget_us = options_.max_deadline_us;
  }
  DeadlineToken::ClockFn clock =
      options_.clock != nullptr ? options_.clock : &DeadlineToken::NowMicros;
  return DeadlineToken::AfterMicros(budget_us, clock);
}

void QueryService::Submit(const QueryRequest& request, DoneFn done) {
  XTOPK_COUNTER("server.requests").Add(1);
  XTOPK_WINDOWED_COUNTER("server.requests").Add(1);

  QueryResponse inline_response;
  inline_response.request_id = request.request_id;

  if (request.op == RequestOp::kPing) {
    inline_response.status = ResponseStatus::kOk;
    CountResponse(inline_response.status);
    done(std::move(inline_response));
    return;
  }

  bool shed = false;
  bool shutting_down = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      shutting_down = true;
    } else {
      const bool high = request.priority == Priority::kHigh;
      std::deque<Pending>& queue = high ? queue_high_ : queue_low_;
      const size_t limit = high ? options_.max_queue_high
                                : options_.max_queue_low;
      if (queue.size() >= limit) {
        shed = true;
        if (high) {
          ++stats_.shed_high;
        } else {
          ++stats_.shed_low;
        }
      } else {
        ++stats_.admitted;
        Pending pending;
        pending.request = request;
        pending.deadline = MakeDeadline(request.deadline_us);
        pending.enqueue_us = NowUs();
        pending.done = std::move(done);
        queue.push_back(std::move(pending));
        stats_.queue_depth_high = queue_high_.size();
        stats_.queue_depth_low = queue_low_.size();
        XTOPK_GAUGE("server.queue.depth")
            .Set(static_cast<int64_t>(queue_high_.size() +
                                      queue_low_.size()));
        work_ready_.notify_one();
      }
    }
  }

  if (shutting_down) {
    inline_response.status = ResponseStatus::kShuttingDown;
    inline_response.error = "server is shutting down";
    CountResponse(inline_response.status);
    done(std::move(inline_response));
    return;
  }
  if (shed) {
    // Shedding is the cheap path by design: no allocation beyond the
    // response, no queue mutation, answered on the submitter's thread.
    inline_response.status = ResponseStatus::kShedOverload;
    inline_response.retry_after_ms = options_.retry_after_ms;
    inline_response.error = "admission queue full";
    if (request.priority == Priority::kHigh) {
      XTOPK_COUNTER("server.shed.high").Add(1);
      XTOPK_WINDOWED_COUNTER("server.shed.high").Add(1);
    } else {
      XTOPK_COUNTER("server.shed.low").Add(1);
      XTOPK_WINDOWED_COUNTER("server.shed.low").Add(1);
    }
    CountResponse(inline_response.status);
    done(std::move(inline_response));
  }
}

bool QueryService::RunOnce() {
  Pending pending;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!queue_high_.empty()) {
      pending = std::move(queue_high_.front());
      queue_high_.pop_front();
    } else if (!queue_low_.empty()) {
      pending = std::move(queue_low_.front());
      queue_low_.pop_front();
    } else {
      return false;
    }
    stats_.queue_depth_high = queue_high_.size();
    stats_.queue_depth_low = queue_low_.size();
    XTOPK_GAUGE("server.queue.depth")
        .Set(static_cast<int64_t>(queue_high_.size() + queue_low_.size()));
  }
  ExecuteAdmitted(std::move(pending));
  return true;
}

void QueryService::ExecuteAdmitted(Pending pending) {
  const uint64_t wait_us = NowUs() - pending.enqueue_us;
  XTOPK_HISTOGRAM("server.queue_wait_us").Record(wait_us);
  XTOPK_WINDOWED_HISTOGRAM("server.queue_wait_us").Record(wait_us);

  QueryResponse response;
  response.request_id = pending.request.request_id;

  if (pending.deadline.expired()) {
    // The queue wait consumed the whole budget; running now could only
    // produce work the client has already abandoned.
    response.status = ResponseStatus::kDeadlineExpired;
    response.error = "deadline expired while queued";
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.expired_in_queue;
    }
    XTOPK_COUNTER("server.expired_in_queue").Add(1);
    CountResponse(response.status);
    pending.done(std::move(response));
    return;
  }

  const uint64_t exec_start = NowUs();
  const std::vector<std::string> normalized =
      backend_->Normalize(pending.request.keywords);
  const std::string key = ResultCache::Key(
      normalized, pending.request.semantics, pending.request.k);
  const uint64_t watermark = backend_->Watermark();

  if (auto cached = cache_.Lookup(key, watermark)) {
    response.status = ResponseStatus::kOk;
    response.hits = *cached;
  } else {
    std::vector<ResponseHit> hits;
    Status status = backend_->RunQuery(pending.request, pending.deadline,
                                       &hits);
    if (status.ok()) {
      response.status = ResponseStatus::kOk;
      response.hits = std::move(hits);
      // Cache only complete answers: a partial result's length depends on
      // the budget that produced it and would poison later lookups.
      cache_.Insert(key, watermark,
                    std::make_shared<const std::vector<ResponseHit>>(
                        response.hits));
    } else if (status.code() == StatusCode::kDeadlineExceeded) {
      response.status = ResponseStatus::kPartial;
      response.hits = std::move(hits);
      response.error = status.message();
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.partial;
    } else {
      response.status = ResponseStatus::kInternalError;
      response.error = status.ToString();
    }
  }

  const uint64_t exec_us = NowUs() - exec_start;
  XTOPK_HISTOGRAM("server.exec_us").Record(exec_us);
  XTOPK_WINDOWED_HISTOGRAM("server.exec_us").Record(exec_us);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.executed;
  }
  CountResponse(response.status);
  pending.done(std::move(response));
}

void QueryService::WorkerLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [this] {
        return stopping_ || !queue_high_.empty() || !queue_low_.empty();
      });
      if (stopping_) return;  // Stop() answers what is still queued
    }
    RunOnce();
  }
}

QueryResponse QueryService::Execute(const QueryRequest& request) {
  struct Waiter {
    std::mutex mu;
    std::condition_variable cv;
    bool ready = false;
    QueryResponse response;
  };
  auto waiter = std::make_shared<Waiter>();
  Submit(request, [waiter](QueryResponse response) {
    std::lock_guard<std::mutex> lock(waiter->mu);
    waiter->response = std::move(response);
    waiter->ready = true;
    waiter->cv.notify_one();
  });
  if (options_.workers == 0) {
    // Deterministic mode: drain the queues on this thread until the
    // submitted request (and anything admitted before it) completes.
    while (true) {
      {
        std::lock_guard<std::mutex> lock(waiter->mu);
        if (waiter->ready) break;
      }
      if (!RunOnce()) break;  // inline outcome (shed/ping/shutdown)
    }
  }
  std::unique_lock<std::mutex> lock(waiter->mu);
  waiter->cv.wait(lock, [&] { return waiter->ready; });
  return std::move(waiter->response);
}

void QueryService::Stop() {
  std::deque<Pending> orphans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    work_ready_.notify_all();
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    orphans.swap(queue_high_);
    for (Pending& pending : queue_low_) {
      orphans.push_back(std::move(pending));
    }
    queue_low_.clear();
    stats_.queue_depth_high = 0;
    stats_.queue_depth_low = 0;
  }
  XTOPK_GAUGE("server.queue.depth").Set(0);
  for (Pending& pending : orphans) {
    QueryResponse response;
    response.request_id = pending.request.request_id;
    response.status = ResponseStatus::kShuttingDown;
    response.error = "server stopped before execution";
    CountResponse(response.status);
    pending.done(std::move(response));
  }
}

QueryServiceStats QueryService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  QueryServiceStats out = stats_;
  out.cache_hits = cache_.hits();
  out.cache_misses = cache_.misses();
  return out;
}

}  // namespace serve
}  // namespace xtopk
