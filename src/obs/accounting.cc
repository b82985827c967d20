#include "obs/accounting.h"

#include <time.h>

#include <cstdio>

namespace xtopk {
namespace obs {

namespace internal {
constinit thread_local ResourceAccounting* tls_accounting = nullptr;
}  // namespace internal

double ThreadCpuMicros() {
#ifdef CLOCK_THREAD_CPUTIME_ID
  struct timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
#else
  return 0.0;
#endif
}

void ResourceAccounting::AppendJson(std::string* out) const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"pages_read\":%llu,\"bytes_decoded\":%llu,"
                "\"cache_hits\":%llu,\"cache_misses\":%llu,"
                "\"rows_joined\":%llu,\"wall_us\":%.3f,\"cpu_us\":%.3f,",
                static_cast<unsigned long long>(pages_read),
                static_cast<unsigned long long>(bytes_decoded),
                static_cast<unsigned long long>(cache_hits),
                static_cast<unsigned long long>(cache_misses),
                static_cast<unsigned long long>(rows_joined), wall_us, cpu_us);
  *out += buf;
  *out += "\"planner_mode\":\"";
  // planner_mode values are fixed identifiers; no escaping needed.
  *out += planner_mode;
  *out += "\"}";
}

}  // namespace obs
}  // namespace xtopk
