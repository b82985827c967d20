#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// One timed call into a layer, as the benchmark saw it from outside.
struct Span {
  const char* name = "";  ///< static string, e.g. "core.topk_search"
  double start_us = 0.0;
  double end_us = 0.0;
  int64_t parent = -1;  ///< index of the enclosing span, -1 for a root
  uint64_t query_id = 0;
};

/// In-memory span store of the traced run. Disabled recorders drop every
/// span and return -1, so the untraced run pays one branch per call site.
/// Add is safe from several threads.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  int64_t Add(const char* name, double start_us, double end_us, int64_t parent,
              uint64_t query_id) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, start_us, end_us, parent, query_id});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  /// Spans recorded so far (call once recording has stopped).
  const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: number of spans, summed duration, and summed self time
  /// (duration minus the durations of direct children).
  struct LayerTotals {
    uint64_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };
  std::map<std::string, LayerTotals> Totals() const {
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        child_us[static_cast<size_t>(span.parent)] += span.end_us - span.start_us;
      }
    }
    std::map<std::string, LayerTotals> totals;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      LayerTotals& t = totals[span.name];
      const double duration = span.end_us - span.start_us;
      ++t.count;
      t.total_us += duration;
      t.self_us += duration - child_us[i];
    }
    return totals;
  }

 private:
  bool enabled_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
