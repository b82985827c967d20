// perfbench: end-to-end and per-layer benchmark of the xtopk engine.
//
//   perfbench --workload engine_topk|durable_ingest|serve_cached
//             --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Runs one workload and prints, as the last line of stdout, one JSON
// object {"correct","attempted","failed","metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ones, and
// the run's spans go to DIR/trace_<workload>.json. perfbench/README.md
// describes the workloads and what each metric measures.

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "engine_topk|durable_ingest|serve_cached --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\n",
               why);
  std::exit(2);
}

void PrintMetrics(const std::vector<std::pair<std::string, std::string>>& names,
                  const std::map<std::string, perfbench::Metric>& values,
                  bool zero_if_missing, std::string* out) {
  bool first = true;
  char buf[128];
  for (const auto& [name, unit] : names) {
    auto it = values.find(name);
    double value = 0.0;
    if (it != values.end()) {
      value = it->second.value;
      if (it->second.unit != unit) {
        std::fprintf(stderr, "perfbench: %s reported in %s, expected %s\n",
                     name.c_str(), it->second.unit.c_str(), unit.c_str());
        std::exit(2);
      }
    } else if (!zero_if_missing) {
      std::fprintf(stderr, "perfbench: end-to-end metric %s missing\n",
                   name.c_str());
      std::exit(2);
    }
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: %s is not finite\n", name.c_str());
      std::exit(2);
    }
    std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%.17g,\"unit\":\"",
                  first ? "" : ",", name.c_str(), value);
    *out += buf;
    *out += unit + "\"}";
    first = false;
  }
  for (const auto& [name, metric] : values) {
    bool known = false;
    for (const auto& entry : names) known = known || entry.first == name;
    if (!known) {
      std::fprintf(stderr, "perfbench: unregistered metric %s\n", name.c_str());
      std::exit(2);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::string workload;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      config.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (std::strcmp(flag, "--seconds") == 0) {
      config.seconds = std::strtod(value, nullptr);
      have_seconds = true;
    } else if (std::strcmp(flag, "--trace") == 0) {
      config.trace = std::strcmp(value, "1") == 0;
      have_trace = std::strcmp(value, "0") == 0 || config.trace;
    } else if (std::strcmp(flag, "--work-dir") == 0) {
      config.work_dir = value;
    } else {
      Usage("unknown flag");
    }
  }
  if (argc % 2 != 1) Usage("flags take one value each");
  if (!have_seed || !have_seconds || !have_trace || config.work_dir.empty()) {
    Usage("--seed, --seconds, --trace and --work-dir are required");
  }
  if (!(config.seconds >= 1.0)) Usage("--seconds must be at least 1");
  mkdir(config.work_dir.c_str(), 0755);

  perfbench::RunResult result;
  if (workload == "engine_topk") {
    result = perfbench::RunEngineTopK(config);
  } else if (workload == "durable_ingest") {
    result = perfbench::RunDurableIngest(config);
  } else if (workload == "serve_cached") {
    result = perfbench::RunServeCached(config);
  } else {
    Usage("unknown workload");
  }
  if (result.attempted == 0) {
    std::fprintf(stderr, "perfbench: no operation ran\n");
    return 2;
  }

  std::string metrics;
  if (config.trace) {
    // The traced run's own top-10 p50: against the untraced run's
    // topk_p50_us it shows what tracing cost end to end.
    result.layers["trace.topk_p50_us"] = result.end_to_end.at("topk_p50_us");
    PrintMetrics(perfbench::LayerMetrics(), result.layers, true, &metrics);
  } else {
    PrintMetrics(perfbench::EndToEndMetrics(), result.end_to_end, false,
                 &metrics);
  }
  const bool correct = result.failed == 0 && !result.broken;
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  return 0;
}
