#ifndef PERFBENCH_SERVE_PROBE_H_
#define PERFBENCH_SERVE_PROBE_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "serve/query_service.h"

namespace perfbench {

/// A ServeBackend decorator that records every RunQuery call by request
/// id: when it started and ended on the shared steady clock, and a digest
/// of the hits the engine produced. A request the backend never saw was
/// answered from the result cache; one it saw was a miss, and its
/// timestamps split the client's round trip into queue wait, execution
/// and return.
class ProbeBackend : public xtopk::serve::ServeBackend {
 public:
  struct Call {
    double start_us = 0.0;
    double end_us = 0.0;
    uint64_t digest = 0;
  };

  explicit ProbeBackend(xtopk::serve::ServeBackend* inner) : inner_(inner) {}

  xtopk::Status RunQuery(const xtopk::serve::QueryRequest& request,
                         xtopk::DeadlineToken deadline,
                         std::vector<xtopk::serve::ResponseHit>* hits) override {
    Call call;
    call.start_us = NowUs();
    xtopk::Status status = inner_->RunQuery(request, deadline, hits);
    call.end_us = NowUs();
    call.digest = HitsDigest(*hits);
    std::lock_guard<std::mutex> lock(mu_);
    calls_[request.request_id] = call;
    return status;
  }

  std::vector<std::string> Normalize(
      const std::vector<std::string>& keywords) override {
    return inner_->Normalize(keywords);
  }

  uint64_t Watermark() override { return inner_->Watermark(); }

  /// The backend call that answered `request_id`, or nullopt when the
  /// request never reached the backend (a cache hit).
  std::optional<Call> Find(uint32_t request_id) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = calls_.find(request_id);
    if (it == calls_.end()) return std::nullopt;
    return it->second;
  }

 private:
  xtopk::serve::ServeBackend* inner_;  // not owned
  mutable std::mutex mu_;
  std::unordered_map<uint32_t, Call> calls_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_PROBE_H_
