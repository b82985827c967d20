#ifndef XTOPK_OBS_ACCOUNTING_H_
#define XTOPK_OBS_ACCOUNTING_H_

#include <cstdint>
#include <string>

namespace xtopk {
namespace obs {

/// Per-query resource attribution. An engine query installs one of these in
/// thread-local storage for its duration (ScopedAccounting); the storage,
/// index, and core layers blindly call the Account* hooks below, which are
/// a null-check plus a plain add when no query is active — cheap enough to
/// leave compiled in everywhere.
///
/// All counts are per-query deltas, not process totals: the cumulative
/// process view stays in MetricsRegistry; this struct answers "what did
/// *this* query cost".
struct ResourceAccounting {
  uint64_t pages_read = 0;     ///< physical page-file reads
  uint64_t bytes_decoded = 0;  ///< compressed bytes run through a decoder
  uint64_t cache_hits = 0;     ///< sharded-LRU hits (buffer pool + decoded)
  uint64_t cache_misses = 0;
  uint64_t rows_joined = 0;  ///< join candidates materialized
  double wall_us = 0;
  double cpu_us = 0;  ///< this thread's CPU time (CLOCK_THREAD_CPUTIME_ID)
  /// How the join order was chosen: "planned_cached" | "planned" |
  /// "heuristic" | "" (single-term / not applicable).
  std::string planner_mode;

  void Clear() { *this = ResourceAccounting(); }

  /// {"pages_read":...,"bytes_decoded":...,...,"planner_mode":"..."}
  void AppendJson(std::string* out) const;
  std::string ToJson() const {
    std::string out;
    AppendJson(&out);
    return out;
  }
};

namespace internal {
/// The accounting sink for the current thread, or nullptr when no query is
/// in flight on it.
/// constinit: a constant-initialized thread_local needs no init wrapper
/// call on access.
extern constinit thread_local ResourceAccounting* tls_accounting;
}  // namespace internal

/// Installs `acc` as this thread's accounting sink for the scope, restoring
/// whatever was installed before on destruction (so nested scopes — e.g. a
/// replay harness timing a batch that times each query — attribute to the
/// innermost one).
class ScopedAccounting {
 public:
  explicit ScopedAccounting(ResourceAccounting* acc)
      : previous_(internal::tls_accounting) {
    internal::tls_accounting = acc;
  }
  ~ScopedAccounting() { internal::tls_accounting = previous_; }

  ScopedAccounting(const ScopedAccounting&) = delete;
  ScopedAccounting& operator=(const ScopedAccounting&) = delete;

 private:
  ResourceAccounting* previous_;
};

/// The accounting sink active on this thread (nullptr if none). Exposed for
/// code that wants to attribute something custom.
inline ResourceAccounting* CurrentAccounting() {
  return internal::tls_accounting;
}

// --- hooks, called from the instrumented layers ---------------------------

inline void AccountPagesRead(uint64_t n) {
  if (auto* a = internal::tls_accounting) a->pages_read += n;
}
inline void AccountBytesDecoded(uint64_t n) {
  if (auto* a = internal::tls_accounting) a->bytes_decoded += n;
}
inline void AccountCacheHit(uint64_t n = 1) {
  if (auto* a = internal::tls_accounting) a->cache_hits += n;
}
inline void AccountCacheMiss(uint64_t n = 1) {
  if (auto* a = internal::tls_accounting) a->cache_misses += n;
}
inline void AccountRowsJoined(uint64_t n) {
  if (auto* a = internal::tls_accounting) a->rows_joined += n;
}

/// CPU time consumed by the calling thread, in microseconds
/// (CLOCK_THREAD_CPUTIME_ID; 0 where unsupported).
double ThreadCpuMicros();

}  // namespace obs
}  // namespace xtopk

#endif  // XTOPK_OBS_ACCOUNTING_H_
