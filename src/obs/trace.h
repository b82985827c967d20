#ifndef XTOPK_OBS_TRACE_H_
#define XTOPK_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/timer.h"

namespace xtopk {
namespace obs {

/// A per-query tree of timed spans with span-local counters and labels —
/// the substrate of Engine::Explain and the per-query half of the
/// observability layer (the process-wide half is the MetricsRegistry).
///
/// Spans nest by call order: OpenSpan parents the new span under the
/// innermost still-open span. Stats are numeric and deterministic (rows
/// scanned, candidates, threshold values); durations are wall-clock and are
/// excluded from determinism comparisons.
///
/// Tracing is opt-in and carried as a `QueryTrace*` that is null when
/// disabled; every instrumentation site is guarded, so a disabled query
/// performs zero tracing work and zero allocations (pinned by tests via the
/// obs.spans_opened registry counter).
class QueryTrace {
 public:
  struct Span {
    std::string name;
    int parent = -1;  ///< index into spans(); -1 = root
    double start_us = 0.0;
    double duration_us = 0.0;
    bool open = true;
    /// Deterministic numeric counters, insertion-ordered.
    std::vector<std::pair<std::string, double>> stats;
    /// String annotations (mode=star_join, termination=k_reached, ...).
    std::vector<std::pair<std::string, std::string>> labels;
  };

  QueryTrace() = default;

  /// Starts a span under the innermost open span; returns its id.
  int OpenSpan(std::string_view name);
  /// Ends span `id`, fixing its duration. Spans close innermost-first.
  void CloseSpan(int id);
  /// Adds a closed span under the innermost open span for work the caller
  /// timed (start_us on the NowMicros clock); returns its id.
  int AddClosedSpan(std::string_view name, double start_us,
                    double duration_us) {
    int id = OpenSpan(name);
    CloseSpan(id);
    spans_[id].start_us = start_us;
    spans_[id].duration_us = duration_us;
    return id;
  }
  /// Microseconds since this trace began: the clock span starts are on.
  double NowMicros() const { return epoch_.ElapsedMicros(); }

  /// Adds `delta` to stat `name` of span `id` (created at 0 on first use).
  void AddStat(int id, std::string_view name, double delta);
  /// Sets label `name` of span `id`.
  void SetLabel(int id, std::string_view name, std::string value);

  const std::vector<Span>& spans() const { return spans_; }
  bool empty() const { return spans_.empty(); }

  /// Duration of the first root span (the whole query), 0 if none closed.
  double total_us() const;
  /// Sum of stat `name` over all spans (0 when absent) — the unified
  /// per-query counter view.
  double StatTotal(std::string_view name) const;
  /// Value of stat `name` on span `id`, or `fallback` when absent.
  double StatOr(int id, std::string_view name, double fallback = 0.0) const;

  /// Fraction of the root span's duration covered by its direct children
  /// (the EXPLAIN coverage figure); 0 when there is no closed root span.
  double ChildCoverage() const;

  /// Human-readable tree: one line per span with duration, labels, stats.
  std::string Render() const;
  /// Nested JSON: {"name":...,"duration_us":...,"stats":{...},
  /// "labels":{...},"children":[...]}.
  std::string ToJson() const;

 private:
  void AppendSpanJson(int id, const std::vector<std::vector<int>>& children,
                      std::string* out) const;

  std::vector<Span> spans_;
  std::vector<int> open_stack_;
  Timer epoch_;
};

/// RAII span guard: no-op (and allocation-free) when `trace` is null.
///
///   obs::ScopedSpan span(trace, "term_lookup");   // trace may be null
///   ...
///   span.Stat("rows", rows);
class ScopedSpan {
 public:
  ScopedSpan(QueryTrace* trace, std::string_view name)
      : trace_(trace), id_(trace != nullptr ? trace->OpenSpan(name) : -1) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { Close(); }

  /// Ends the span early (idempotent).
  void Close() {
    if (trace_ != nullptr) {
      trace_->CloseSpan(id_);
      trace_ = nullptr;
    }
  }

  void Stat(std::string_view name, double delta) {
    if (trace_ != nullptr) trace_->AddStat(id_, name, delta);
  }
  void Label(std::string_view name, std::string value) {
    if (trace_ != nullptr) trace_->SetLabel(id_, name, std::move(value));
  }

  bool enabled() const { return trace_ != nullptr; }
  QueryTrace* trace() const { return trace_; }
  int id() const { return id_; }

 private:
  QueryTrace* trace_;
  int id_;
};

}  // namespace obs
}  // namespace xtopk

#endif  // XTOPK_OBS_TRACE_H_
