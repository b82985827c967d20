// Incremental-indexing throughput (DESIGN.md "Readers & segments").
//
// The paper's index is built once and queried; this bench measures the
// orthogonal maintenance axis: how fast the UpdatableEngine ingests new
// documents, what queries cost while ingest is in flight, and what
// sealing/compaction costs. Three sections:
//
//   A. ingest — AddDocument over generated paper-like documents with a
//      query mixed in every kQueriesEvery docs (the reader forcing the
//      memtable refresh), reporting docs/sec, rebuilds (must stay 0 on
//      this append-only workload), and memtable refresh count;
//   B. query latency during ingest — p50/p95/p99 of the interleaved
//      queries, i.e. the cost of reading a half-built memtable on top of
//      the sealed base;
//   C. seal + compact — milliseconds to seal the memtable into a durable
//      disk segment, and (after a second, smaller seal) to fold the sealed
//      segments into one, with before/after queries showing that neither
//      moves a result.
//
// The engine is a durable one (OpenDurable over a scratch data directory
// under the system temp dir, background compaction off), so section C
// runs the manifest-logged seal and compaction an always-on service runs.
//
// Each section emits a `BENCH {json}` line so the numbers land in the
// BENCH_* trajectory.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "bench_util.h"
#include "core/updatable_engine.h"
#include "util/rng.h"
#include "util/timer.h"
#include "xml/xml_parser.h"

namespace {

using namespace xtopk;

constexpr size_t kQueriesEvery = 10;  // one query per this many ingested docs

const char* const kTitleWords[] = {"xml",     "keyword", "search",  "ranking",
                                   "index",   "query",   "top",     "stream",
                                   "dewey",   "join",    "column",  "segment"};
const char* const kVenues[] = {"icde", "vldb", "sigmod", "edbt"};

std::string MakeDocXml(Rng* rng, size_t i) {
  std::string title;
  for (int w = 0; w < 4; ++w) {
    if (w > 0) title += ' ';
    title += kTitleWords[rng->NextBounded(sizeof(kTitleWords) /
                                          sizeof(kTitleWords[0]))];
  }
  return "<paper><title>" + title + "</title><author>author" +
         std::to_string(rng->NextBounded(200)) + "</author><venue>" +
         kVenues[i % 4] + "</venue><year>" +
         std::to_string(2000 + i % 26) + "</year></paper>";
}

int RunBench() {
  const size_t num_docs = 2000 * bench::BenchScale();
  Rng rng(2029);

  const std::string data_dir =
      (std::filesystem::temp_directory_path() /
       ("xtopk_bench_update." + std::to_string(::getpid())))
          .string();
  std::error_code ec;
  std::filesystem::remove_all(data_dir, ec);

  XmlTree shell;
  shell.CreateRoot("collection");
  DurableOptions durable;
  durable.data_dir = data_dir;
  durable.auto_compact = false;  // section C times its own compaction
  auto opened = UpdatableEngine::OpenDurable(std::move(shell), {}, durable);
  if (!opened.ok()) {
    std::fprintf(stderr, "open: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<UpdatableEngine> owned = std::move(opened).value();
  UpdatableEngine& engine = *owned;

  const std::vector<std::vector<std::string>> queries = {
      {"xml", "keyword"}, {"ranking", "join"}, {"segment", "icde"},
      {"dewey", "column"}};

  std::printf("=== Update throughput: incremental segmented ingest ===\n");
  std::printf("docs: %zu, one query per %zu docs\n\n", num_docs,
              kQueriesEvery);

  // --- Sections A+B: interleaved ingest and queries -----------------------
  obs::Histogram query_us;
  double ingest_millis = 0, query_millis = 0;
  uint64_t result_checksum = 0;
  size_t queries_run = 0;
  for (size_t i = 0; i < num_docs; ++i) {
    XmlTree doc = ParseXmlStringOrDie(MakeDocXml(&rng, i));
    Timer add_timer;
    engine.AddDocument("p" + std::to_string(i), doc);
    ingest_millis += add_timer.ElapsedMillis();
    if (i % kQueriesEvery == kQueriesEvery - 1) {
      const auto& q = queries[(i / kQueriesEvery) % queries.size()];
      Timer query_timer;
      auto hits = engine.SearchTopK(q, 10);
      double micros = query_timer.ElapsedMicros();
      query_millis += micros / 1000.0;
      query_us.Record(static_cast<uint64_t>(micros));
      result_checksum += hits.size() * (i + 1);
      ++queries_run;
    }
  }
  double docs_per_sec = 1000.0 * static_cast<double>(num_docs) / ingest_millis;
  std::printf("ingest: %10.0f docs/sec (%.1f ms total)\n", docs_per_sec,
              ingest_millis);
  std::printf("        rebuilds %llu (append-only: must be 0), "
              "memtable refreshes %llu, encoding updates %llu\n",
              (unsigned long long)engine.rebuilds(),
              (unsigned long long)engine.memtable_refreshes(),
              (unsigned long long)engine.encoding_updates());
  if (engine.rebuilds() != 0) {
    std::fprintf(stderr, "REGRESSION: append-only ingest triggered %llu full "
                 "rebuilds\n",
                 (unsigned long long)engine.rebuilds());
    return 1;
  }
  double p50 = query_us.Percentile(0.50);
  double p95 = query_us.Percentile(0.95);
  double p99 = query_us.Percentile(0.99);
  std::printf("queries during ingest: %zu, p50 %.0f us  p95 %.0f us  "
              "p99 %.0f us (checksum %llu)\n",
              queries_run, p50, p95, p99,
              (unsigned long long)result_checksum);
  {
    bench::BenchJson json("update_throughput");
    json.Field("mode", "ingest")
        .Field("docs", num_docs)
        .Field("docs_per_sec", docs_per_sec)
        .Field("rebuilds", engine.rebuilds())
        .Field("memtable_refreshes", engine.memtable_refreshes())
        .Field("queries", queries_run)
        .Field("query_p50_us", p50)
        .Field("query_p95_us", p95)
        .Field("query_p99_us", p99);
    json.Emit();
  }

  // --- Section C: seal + compact ------------------------------------------
  auto same_hits = [](const std::vector<QueryHit>& a,
                      const std::vector<QueryHit>& b) {
    bool same = a.size() == b.size();
    for (size_t i = 0; same && i < a.size(); ++i) {
      same = a[i].node == b[i].node && a[i].score == b[i].score;
    }
    return same;
  };
  auto before = engine.SearchTopK(queries[0], 10);

  Timer seal_timer;
  Status s = engine.SealMemtable();
  double seal_millis = seal_timer.ElapsedMillis();
  if (!s.ok()) {
    std::fprintf(stderr, "seal: %s\n", s.ToString().c_str());
    return 1;
  }
  bool seal_identical = same_hits(before, engine.SearchTopK(queries[0], 10));
  std::printf("\nseal memtable -> disk segment: %.1f ms (%zu segments, "
              "results %s)\n",
              seal_millis, engine.segment_count(),
              seal_identical ? "identical" : "DIFFER");
  if (!seal_identical) return 1;

  // A second, smaller sealed segment gives the compaction two to merge.
  for (size_t i = num_docs; i < num_docs + num_docs / 10; ++i) {
    engine.AddDocument("p" + std::to_string(i),
                       ParseXmlStringOrDie(MakeDocXml(&rng, i)));
  }
  s = engine.SealMemtable();
  if (!s.ok()) {
    std::fprintf(stderr, "seal: %s\n", s.ToString().c_str());
    return 1;
  }
  const size_t segments_before = engine.segment_count();
  auto pre_compact = engine.SearchTopK(queries[0], 10);

  Timer compact_timer;
  s = engine.Compact();
  double compact_millis = compact_timer.ElapsedMillis();
  if (!s.ok()) {
    std::fprintf(stderr, "compact: %s\n", s.ToString().c_str());
    return 1;
  }
  bool identical = same_hits(pre_compact, engine.SearchTopK(queries[0], 10));
  std::printf("compact %zu %s-> %zu segment: %.1f ms (results %s)\n",
              segments_before, identical ? "" : "MISMATCH ",
              engine.segment_count(), compact_millis,
              identical ? "identical" : "DIFFER");
  if (!identical) return 1;
  {
    bench::BenchJson json("update_throughput");
    json.Field("mode", "maintenance")
        .Field("docs", num_docs)
        .Field("seal_ms", seal_millis)
        .Field("compact_ms", compact_millis)
        .Field("segments_after", engine.segment_count());
    json.Emit();
  }

  owned.reset();
  std::filesystem::remove_all(data_dir, ec);
  return 0;
}

}  // namespace

int main() { return RunBench(); }
