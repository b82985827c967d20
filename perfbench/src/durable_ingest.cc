// durable_ingest: reads beside writes on the durable segmented engine.
//
// Identical episodes, one per 5 s of --seconds. Each opens a fresh data
// directory with OpenDurable over the default corpus (background
// compaction off); one thread then ingests papers of a second, seed-drawn
// corpus, pre-serialized to XML: each is timed through ParseXmlString and
// AddDocument. After every 8 documents one query runs, alternating
// top-10 and complete, so an episode of 2400 documents holds 150 top-10
// samples, half again the 100 its p90 needs; every 500 documents
// SealMemtable runs, then the production tiered compaction policy runs
// synchronously (RunOnce until it finds no work).
// An episode's work is a fixed function of the seed (2400 documents), so
// every episode does the same seals, compaction rounds and data-directory
// bytes, and so does every run with that seed, and the n-th read of every
// episode runs one query on the same index state. Latencies are
// percentiles over the reads of each read's fastest episode, qps the best
// episode's (ReportFastestRepeats); the episodes' opens give setup_s.
//
// Afterwards (untimed) the last episode's memtable is sealed and the
// durable engine must answer the whole query pool like a fresh Engine over
// its tree.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <string>
#include <unistd.h>
#include <vector>

#include "common.h"
#include "core/updatable_engine.h"
#include "index/index_builder.h"
#include "workload/dblp_gen.h"
#include "workload/query_gen.h"
#include "xml/xml_parser.h"

namespace perfbench {
namespace {

/// Nominal length of one episode on a 4-vCPU VM: --seconds divided by
/// this sets the number of episodes.
constexpr double kEpisodeSeconds = 5.0;
constexpr size_t kDocsPerEpisode = 2400;
constexpr size_t kDocsPerRead = 8;
constexpr size_t kDocsPerSeal = 500;

/// Serialized papers of the ingest stream, in corpus order.
std::vector<std::string> StreamPapers(uint64_t seed, size_t count) {
  xtopk::DblpGenOptions options;
  options.seed = 0x5EED0000ull + seed;
  xtopk::DblpCorpus corpus = xtopk::GenerateDblp(options);
  std::vector<std::string> papers;
  for (size_t i = 0; i < count && i < corpus.titles.size(); ++i) {
    papers.push_back(
        corpus.tree.ToXmlString(corpus.tree.parent(corpus.titles[i])));
  }
  return papers;
}

/// What one episode leaves behind; equal in every episode of a run.
struct EpisodeCounts {
  uint64_t maintenance_bytes = 0;
  uint64_t dir_bytes = 0;
  uint64_t memtable_refreshes = 0;
  size_t compact_rounds = 0;
  bool operator==(const EpisodeCounts&) const = default;
};

}  // namespace

RunResult RunDurableIngest(const RunConfig& config) {
  RunResult result;
  const size_t episodes = std::max<size_t>(
      1, static_cast<size_t>(std::lround(config.seconds / kEpisodeSeconds)));
  const size_t docs = kDocsPerEpisode;
  const std::vector<std::string> papers = StreamPapers(config.seed, docs);
  if (papers.size() != docs) {
    std::fprintf(stderr, "perfbench: the stream corpus holds only %zu papers\n",
                 papers.size());
    std::exit(2);
  }
  uint64_t stream_bytes = 0;
  for (const std::string& p : papers) stream_bytes += p.size();

  // Query pool on the base corpus's terms: each query runs once as top-10
  // and once complete per episode.
  const size_t reads = docs / kDocsPerRead;
  std::vector<Query> pool;
  uint64_t base_bytes = 0;
  {
    std::unique_ptr<xtopk::XmlTree> base = DefaultCorpus();
    base_bytes = base->ToXmlString(base->root()).size();
    xtopk::IndexBuilder builder(*base);
    xtopk::QueryGenerator gen(builder.terms(), config.seed ^ 0xD0D0ull);
    pool = StratifiedQueries(&gen, (reads + 1) / 2, 2,
                             xtopk::FrequencyBand{100, 1000},
                             xtopk::FrequencyBand{1000, 20000}, 4, config.seed);
  }
  std::fprintf(stderr,
               "perfbench: durable_ingest: %zu episodes of %zu docs (%llu XML "
               "bytes) and %zu reads over %zu queries\n",
               episodes, docs, static_cast<unsigned long long>(stream_bytes),
               reads, pool.size());

  const std::string dir_prefix = config.work_dir + "/durable-" +
                                 std::to_string(static_cast<long>(getpid()));
  std::string dir;
  std::unique_ptr<xtopk::UpdatableEngine> engine;
  SpanRecorder spans(config.trace);
  std::vector<double> open_s, parse_us, add_us, seal_ms, compact_ms, refresh_us;
  std::vector<double> segments;
  std::vector<WindowFigures> figures;
  std::vector<EpisodeCounts> episode_counts;
  uint64_t pages = 0, decoded = 0, cache_hits = 0, cache_misses = 0;
  double ingest_us = 0.0, phases_us = 0.0;
  size_t total_reads = 0;
  std::vector<double> fastest_us(reads,
                                 std::numeric_limits<double>::infinity());
  for (size_t episode = 0; episode < episodes; ++episode) {
    engine.reset();
    if (!dir.empty()) std::filesystem::remove_all(dir);
    dir = dir_prefix + "-" + std::to_string(episode);
    std::filesystem::remove_all(dir);
    std::unique_ptr<xtopk::XmlTree> base = DefaultCorpus();
    xtopk::DurableOptions durable;
    durable.data_dir = dir;
    durable.auto_compact = false;
    const double open_start = NowUs();
    auto opened =
        xtopk::UpdatableEngine::OpenDurable(std::move(*base), {}, durable);
    open_s.push_back((NowUs() - open_start) / 1e6);
    if (!opened.ok()) {
      std::fprintf(stderr, "perfbench: OpenDurable failed: %s\n",
                   opened.status().ToString().c_str());
      std::exit(2);
    }
    engine = std::move(opened).value();

    std::vector<double> topk_us, complete_us;
    EpisodeCounts counts;
    size_t read = 0;
    const double phase_start = NowUs();
    for (size_t i = 0; i < docs; ++i) {
      const uint64_t doc_id = episode * docs + i;
      double t0 = NowUs();
      auto parsed = xtopk::XmlParser::Parse(papers[i]);
      double t1 = NowUs();
      spans.Add("xml.parse", t0, t1, -1, doc_id);
      parse_us.push_back(t1 - t0);
      result.Count(parsed.ok());
      if (!parsed.ok()) continue;
      t0 = NowUs();
      engine->AddDocument("p" + std::to_string(i), parsed.value());
      t1 = NowUs();
      spans.Add("index.add_doc", t0, t1, -1, doc_id);
      add_us.push_back(t1 - t0);
      ingest_us += parse_us.back() + add_us.back();

      if ((i + 1) % kDocsPerRead == 0) {
        const Query& query = pool[read / 2];
        const bool topk = read % 2 == 0;
        const uint64_t read_id = total_reads + read;
        t0 = NowUs();
        engine->plan_watermark();  // runs the lazy memtable refresh
        t1 = NowUs();
        std::vector<xtopk::QueryHit> hits =
            topk ? engine->SearchTopK(query, 10) : engine->Search(query);
        const double t2 = NowUs();
        const int64_t parent = spans.Add("e2e.query", t0, t2, -1, read_id);
        spans.Add("index.refresh", t0, t1, parent, read_id);
        spans.Add("core.durable_search", t1, t2, parent, read_id);
        refresh_us.push_back(t1 - t0);
        (topk ? topk_us : complete_us).push_back(t2 - t0);
        fastest_us[read] = std::min(fastest_us[read], t2 - t0);
        result.Count(engine->last_status().ok());
        const auto& acct = engine->last_accounting();
        pages += acct.pages_read;
        decoded += acct.bytes_decoded;
        cache_hits += acct.cache_hits;
        cache_misses += acct.cache_misses;
        segments.push_back(static_cast<double>(engine->segment_count()));
        ++read;
      }
      if ((i + 1) % kDocsPerSeal == 0) {
        const auto before = FileSizes(dir);
        t0 = NowUs();
        xtopk::Status sealed = engine->SealMemtable();
        t1 = NowUs();
        spans.Add("index.seal", t0, t1, -1, doc_id);
        seal_ms.push_back((t1 - t0) / 1e3);
        ingest_us += t1 - t0;
        result.Count(sealed.ok());
        for (;;) {
          t0 = NowUs();
          const bool merged = engine->scheduler()->RunOnce();
          t1 = NowUs();
          ingest_us += t1 - t0;
          if (!merged) break;
          spans.Add("core.compact", t0, t1, -1, doc_id);
          compact_ms.push_back((t1 - t0) / 1e3);
          ++counts.compact_rounds;
        }
        counts.maintenance_bytes += BytesAdded(before, FileSizes(dir));
      }
    }
    const double phase_us = NowUs() - phase_start;
    phases_us += phase_us;
    total_reads += read;
    counts.dir_bytes = DirectoryBytes(dir);
    counts.memtable_refreshes = engine->memtable_refreshes();
    episode_counts.push_back(counts);
    // Reads completed over the episode's timed phase, ingest included.
    figures.push_back(FiguresOf(topk_us, complete_us,
                                static_cast<double>(read) / (phase_us / 1e6)));
    const WindowFigures& f = figures.back();
    std::fprintf(stderr, "perfbench: episode %zu/%zu: %.1fs, top-k p50 %.0fus "
                 "p90 %.0fus, complete p50 %.0fus, %.2f qps, data dir %llu "
                 "bytes\n", episode + 1, episodes, phase_us / 1e6,
                 f.topk_p50_us, f.topk_p90_us, f.complete_p50_us, f.qps,
                 static_cast<unsigned long long>(counts.dir_bytes));
  }
  const double rss = ResidentMiB();
  for (const EpisodeCounts& c : episode_counts) {
    if (!(c == episode_counts.front())) {
      std::fprintf(stderr, "perfbench: episodes left different data "
                   "directories or counters\n");
      result.broken = true;
    }
  }

  // Untimed: seal the tail, then the whole pool against a fresh Engine.
  if (engine->memtable_docs() > 0) result.Count(engine->SealMemtable().ok());
  {
    xtopk::Engine reference(engine->tree());
    for (size_t q = 0; q < pool.size(); ++q) {
      const bool topk_ok =
          xtopk::ResultFingerprint(engine->SearchTopK(pool[q], 10)) ==
          xtopk::ResultFingerprint(reference.SearchTopK(pool[q], 10));
      const bool complete_ok =
          xtopk::ResultFingerprint(engine->Search(pool[q])) ==
          xtopk::ResultFingerprint(reference.Search(pool[q]));
      if (!topk_ok || !complete_ok) {
        std::fprintf(stderr, "perfbench: durable answer to query %zu differs "
                     "from a fresh Engine's\n", q);
      }
      result.Count(topk_ok);
      result.Count(complete_ok);
    }
  }
  engine.reset();
  std::filesystem::remove_all(dir);

  std::vector<double> topk_fastest_us, complete_fastest_us;
  for (size_t r = 0; r < reads; ++r) {
    (r % 2 == 0 ? topk_fastest_us : complete_fastest_us)
        .push_back(fastest_us[r]);
  }
  ReportFastestRepeats(figures, topk_fastest_us, complete_fastest_us, &result);
  result.EndToEnd("setup_s", Median(open_s), "s");
  result.EndToEnd("rss_mb", rss, "MiB");

  if (config.trace) {
    const EpisodeCounts& c = episode_counts.front();
    const double queries = static_cast<double>(total_reads);
    result.Layer("xml.parse_us", RequirePercentile(parse_us, 0.5, "parse"), "us");
    result.Layer("index.open_s", Median(open_s), "s");
    result.Layer("index.add_doc_us", RequirePercentile(add_us, 0.5, "add_doc"), "us");
    // Fewer than 20 seals and compaction rounds per episode: means.
    result.Layer("index.seal_ms", Mean(seal_ms), "ms");
    result.Layer("index.refresh_p50_us", RequirePercentile(refresh_us, 0.5, "refresh"), "us");
    result.Layer("index.refresh_p90_us", RequirePercentile(refresh_us, 0.9, "refresh"), "us");
    result.Layer("index.segments_at_query", Mean(segments), "count");
    result.Layer("index.memtable_refreshes", static_cast<double>(c.memtable_refreshes), "count");
    result.Layer("core.compact_ms", Mean(compact_ms), "ms");
    result.Layer("core.compact_rounds", static_cast<double>(c.compact_rounds), "count");
    result.Layer("storage.write_amp",
                 Ratio(static_cast<double>(c.maintenance_bytes), static_cast<double>(stream_bytes)), "ratio");
    result.Layer("storage.space_amp",
                 Ratio(static_cast<double>(c.dir_bytes), static_cast<double>(base_bytes + stream_bytes)), "ratio");
    result.Layer("storage.pages_read_per_query", Ratio(static_cast<double>(pages), queries), "count");
    result.Layer("storage.bytes_decoded_per_query", Ratio(static_cast<double>(decoded), queries), "bytes");
    result.Layer("storage.cache_hit_ratio",
                 Ratio(static_cast<double>(cache_hits), static_cast<double>(cache_hits + cache_misses)), "ratio");
    result.Layer("ingest.docs_per_s", static_cast<double>(episodes * docs) / (ingest_us / 1e6), "1/s");
    result.Layer("trace.overhead_pct", TraceOverheadPct(spans.spans().size(), phases_us), "%");
    FinishTrace(config, "durable_ingest", spans, phases_us, &result);
  }
  return result;
}

}  // namespace perfbench
