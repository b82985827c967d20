#include "obs/slow_log.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.h"

namespace xtopk {
namespace obs {
namespace {

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  unsigned long long parsed = std::strtoull(value, &end, 10);
  if (end == value) return fallback;
  return static_cast<uint64_t>(parsed);
}

void AppendEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
}

}  // namespace

SlowLogOptions SlowLogOptions::FromEnv() {
  SlowLogOptions options;
  if (const char* path = std::getenv("XTOPK_SLOWLOG_PATH")) {
    options.path = path;
  }
  options.latency_threshold_us =
      EnvU64("XTOPK_SLOWLOG_THRESHOLD_US", options.latency_threshold_us);
  options.pages_threshold =
      EnvU64("XTOPK_SLOWLOG_PAGES", options.pages_threshold);
  options.max_file_bytes =
      EnvU64("XTOPK_SLOWLOG_MAX_BYTES", options.max_file_bytes);
  return options;
}

std::string SlowQueryCapture::ToJsonLine() const {
  std::string out = "{\"ts_us\":" + std::to_string(ts_us);
  out += ",\"keywords\":[";
  for (size_t i = 0; i < keywords.size(); ++i) {
    if (i != 0) out.push_back(',');
    out.push_back('"');
    AppendEscaped(&out, keywords[i]);
    out.push_back('"');
  }
  out += "],\"k\":" + std::to_string(k);
  out += ",\"semantics\":\"" + semantics + "\"";
  char buf[64];
  std::snprintf(buf, sizeof(buf), ",\"wall_us\":%.3f", wall_us);
  out += buf;
  out += ",\"hits\":" + std::to_string(hits);
  out += ",\"result_fingerprint\":\"" + result_fingerprint + "\"";
  out += ",\"accounting\":";
  accounting.AppendJson(&out);
  if (!trace_json.empty()) {
    // trace_json is already JSON (QueryTrace::ToJson's span array) —
    // embed verbatim.
    out += ",\"trace\":" + trace_json;
  }
  out += "}";
  return out;
}

SlowQueryLog& SlowQueryLog::Global() {
  static SlowQueryLog* log =
      new SlowQueryLog(SlowLogOptions::FromEnv());  // never destroyed
  return *log;
}

void SlowQueryLog::Record(const SlowQueryCapture& capture) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    recent_.push_back(capture);
    while (recent_.size() > options_.memory_entries) recent_.pop_front();
    // The ring keeps the capture itself; only the file needs its JSON line.
    if (!options_.path.empty()) {
      std::string line = capture.ToJsonLine();
      line.push_back('\n');
      const char* mode = "a";
      if (file_bytes_ + line.size() > options_.max_file_bytes) {
        // Bounded file: truncate and restart rather than grow forever. The
        // in-memory ring bridges the rotation for /slowlog readers.
        mode = "w";
        file_bytes_ = 0;
        XTOPK_COUNTER("obs.slowlog.rotations").Add(1);
      }
      if (FILE* f = std::fopen(options_.path.c_str(), mode)) {
        if (std::fwrite(line.data(), 1, line.size(), f) == line.size()) {
          file_bytes_ += line.size();
        }
        std::fclose(f);
      }
    }
  }
  XTOPK_COUNTER("obs.slowlog.captures").Add(1);
}

std::vector<SlowQueryCapture> SlowQueryLog::Recent(size_t max) const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = recent_.size();
  if (max != 0 && max < n) n = max;
  return std::vector<SlowQueryCapture>(recent_.end() - n, recent_.end());
}

std::string SlowQueryLog::ToJson(size_t max) const {
  std::string out = "{\"slow_queries\":[";
  bool first = true;
  for (const SlowQueryCapture& capture : Recent(max)) {
    if (!first) out.push_back(',');
    first = false;
    out += capture.ToJsonLine();
  }
  out += "]}";
  return out;
}

void SlowQueryLog::Reconfigure(SlowLogOptions options) {
  std::lock_guard<std::mutex> lock(mu_);
  options_ = std::move(options);
  file_bytes_ = 0;
}

SlowLogOptions SlowQueryLog::options() const {
  std::lock_guard<std::mutex> lock(mu_);
  return options_;
}

std::string FingerprintHex(const std::string& data) {
  uint64_t hash = 14695981039346656037ull;  // FNV offset basis
  for (unsigned char c : data) {
    hash ^= c;
    hash *= 1099511628211ull;  // FNV prime
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

}  // namespace obs
}  // namespace xtopk
