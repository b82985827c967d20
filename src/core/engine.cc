#include "core/engine.h"

#include <charconv>
#include <unordered_set>

#include "obs/metrics.h"
#include "obs/slow_log.h"
#include "obs/windowed.h"
#include "util/parallel.h"
#include "util/timer.h"
#include "xml/tokenizer.h"

namespace xtopk {

namespace {

/// Builds and records a slow-log capture. Called only after the cheap
/// ShouldCapture check passed.
void CaptureSlowQuery(const BatchQuery& query,
                      const std::vector<std::string>& normalized,
                      const BatchQueryResult& result,
                      const obs::QueryTrace* trace) {
  obs::SlowQueryCapture capture;
  capture.ts_us = obs::MonotonicNowUs();
  capture.keywords = normalized;
  capture.k = query.k;
  capture.semantics = query.semantics == Semantics::kElca ? "elca" : "slca";
  capture.wall_us = result.accounting.wall_us;
  capture.hits = result.hits.size();
  capture.result_fingerprint = ResultFingerprint(result.hits);
  capture.accounting = result.accounting;
  if (trace != nullptr) capture.trace_json = trace->ToJson();
  obs::SlowQueryLog::Global().Record(capture);
}

}  // namespace

std::string ResultFingerprint(const std::vector<QueryHit>& hits) {
  std::string blob;
  blob.reserve(hits.size() * 32);
  char buf[64];
  for (const QueryHit& hit : hits) {
    // "node:level:score;" with the score as %.9g (to_chars' general format
    // at precision 9 is specified to print the same): robust to sub-ulp
    // score differences between builds (FMA contraction and the like)
    // while still distinguishing any real scoring change.
    char* end = std::to_chars(buf, buf + sizeof(buf), hit.node).ptr;
    *end++ = ':';
    end = std::to_chars(end, buf + sizeof(buf), hit.level).ptr;
    *end++ = ':';
    end = std::to_chars(end, buf + sizeof(buf), hit.score,
                        std::chars_format::general, 9)
              .ptr;
    *end++ = ';';
    blob.append(buf, end);
  }
  return obs::FingerprintHex(blob);
}

Engine::Engine(const XmlTree& tree, EngineOptions options)
    : tree_(tree), options_(options) {
  options_.index.scoring = options_.scoring;
  builder_ = std::make_unique<IndexBuilder>(tree_, options_.index);
  topk_index_ = builder_->BuildTopKIndex(jdewey_index());
}

std::vector<std::string> NormalizeKeywords(
    const Tokenizer::Options& tokenizer_options,
    const std::vector<std::string>& keywords) {
  // Same analyzer as indexing; multi-token inputs expand, duplicates drop.
  Tokenizer tokenizer(tokenizer_options);
  std::vector<std::string> normalized;
  std::unordered_set<std::string> seen;
  for (const std::string& keyword : keywords) {
    for (const std::string& token : tokenizer.Tokenize(keyword)) {
      if (seen.insert(token).second) normalized.push_back(token);
    }
  }
  return normalized;
}

std::vector<std::string> Engine::Normalize(
    const std::vector<std::string>& keywords) const {
  return NormalizeKeywords(options_.index.tokenizer, keywords);
}

BatchQueryResult RunQuery(const XmlTree& tree, const EngineOptions& options,
                          TermSource* source, const TopKIndex* prebuilt,
                          PlanCache* plan_cache, const BatchQuery& query,
                          obs::QueryTrace* trace) {
  Timer timer;
  const double cpu_start = obs::ThreadCpuMicros();
  BatchQueryResult out;
  // Every storage/index/core hook below this point bills this query.
  obs::ScopedAccounting accounting_scope(&out.accounting);
  obs::ScopedSpan root(trace, "query");
  if (root.enabled()) {
    root.Label("semantics",
               query.semantics == Semantics::kElca ? "elca" : "slca");
    root.Label("mode", query.k == 0 ? "complete" : "topk");
    root.Stat("k", static_cast<double>(query.k));
  }

  std::vector<std::string> normalized;
  {
    obs::ScopedSpan span(trace, "tokenize");
    normalized = NormalizeKeywords(options.index.tokenizer, query.keywords);
    span.Stat("keywords_in", static_cast<double>(query.keywords.size()));
    span.Stat("keywords_out", static_cast<double>(normalized.size()));
  }
  if (trace != nullptr) {
    // Directory-only probe: the searches resolve the lists themselves; this
    // span only surfaces the per-term frequencies in the EXPLAIN output.
    obs::ScopedSpan span(trace, "term_lookup");
    for (const std::string& term : normalized) {
      uint32_t freq = source->Frequency(term);
      span.Stat("terms", 1.0);
      span.Label(term, std::to_string(freq));
    }
  }

  std::vector<SearchResult> found;
  bool planned = false;
  bool plan_cache_hit = false;
  if (query.k == 0) {
    JoinSearchOptions join_options;
    join_options.semantics = query.semantics;
    join_options.compute_scores = true;
    join_options.scoring = options.scoring;
    join_options.plan_cache = plan_cache;
    join_options.deadline = query.deadline;
    join_options.trace = trace;
    JoinSearch search(source, join_options);
    found = search.Search(normalized);
    SortByScoreDesc(&found);
    out.status = search.status();
    out.join_stats = search.stats();
    planned = search.stats().planned;
    plan_cache_hit = search.stats().plan_cache_hit;
  } else {
    TopKSearchOptions topk_options;
    topk_options.semantics = query.semantics;
    topk_options.k = query.k;
    topk_options.scoring = options.scoring;
    topk_options.plan_cache = plan_cache;
    topk_options.deadline = query.deadline;
    topk_options.trace = trace;
    TopKSearch search(source, topk_options, prebuilt);
    found = search.Search(normalized);
    out.status = search.status();
    planned = search.stats().planned;
    plan_cache_hit = search.stats().plan_cache_hit;
  }
  out.accounting.planner_mode =
      !planned ? "heuristic" : plan_cache_hit ? "planned_cached" : "planned";
  {
    obs::ScopedSpan span(trace, "materialize");
    out.hits.reserve(found.size());
    for (const SearchResult& r : found) {
      out.hits.push_back(QueryHit{r.node, r.level, r.score,
                                  tree.TagName(r.node), tree.text(r.node)});
    }
    span.Stat("hits", static_cast<double>(out.hits.size()));
  }
  root.Stat("hits", static_cast<double>(out.hits.size()));
  // Only run-invariant resource stats may go on the span: batch traces are
  // compared span-for-span against Explain traces, so anything cache- or
  // timing-dependent (hit counts, planner_mode, wall time) stays off the
  // tree and rides in `accounting` instead.
  root.Stat("pages_read", static_cast<double>(out.accounting.pages_read));
  root.Stat("bytes_decoded",
            static_cast<double>(out.accounting.bytes_decoded));
  root.Stat("rows_joined", static_cast<double>(out.accounting.rows_joined));
  root.Close();

  const double wall_us = timer.ElapsedMicros();
  out.accounting.wall_us = wall_us;
  out.accounting.cpu_us = obs::ThreadCpuMicros() - cpu_start;

  XTOPK_COUNTER("engine.queries").Add(1);
  if (out.status.code() == StatusCode::kDeadlineExceeded) {
    XTOPK_COUNTER("engine.deadline_expirations").Add(1);
  }
  XTOPK_HISTOGRAM("engine.query_us")
      .Record(static_cast<uint64_t>(wall_us));
  XTOPK_WINDOWED_COUNTER("engine.queries").Add(1);
  XTOPK_WINDOWED_HISTOGRAM("engine.query_us")
      .Record(static_cast<uint64_t>(wall_us));

  obs::SlowQueryLog& slow_log = obs::SlowQueryLog::Global();
  if (slow_log.ShouldCapture(wall_us, out.accounting.pages_read)) {
    CaptureSlowQuery(query, normalized, out, trace);
  }
  return out;
}

BatchQueryResult Engine::Run(const BatchQuery& query,
                             obs::QueryTrace* trace) const {
  MemoryTermSource source(jdewey_index());
  return RunQuery(tree_, options_, &source, &topk_index_, &plan_cache_, query,
                  trace);
}

std::vector<QueryHit> Engine::Search(const std::vector<std::string>& keywords,
                                     Semantics semantics) const {
  return Run({.keywords = keywords, .k = 0, .semantics = semantics,
              .deadline = {}})
      .hits;
}

std::string HighlightKeywords(const std::string& text,
                              const std::vector<std::string>& keywords,
                              const std::string& open,
                              const std::string& close) {
  std::unordered_set<std::string> wanted;
  Tokenizer tokenizer;
  for (const std::string& keyword : keywords) {
    for (const std::string& token : tokenizer.Tokenize(keyword)) {
      wanted.insert(token);
    }
  }
  std::string out;
  size_t i = 0;
  while (i < text.size()) {
    char c = text[i];
    bool alnum = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                 (c >= '0' && c <= '9');
    if (!alnum) {
      out.push_back(c);
      ++i;
      continue;
    }
    size_t start = i;
    std::string token;
    while (i < text.size()) {
      char t = text[i];
      bool a = (t >= 'a' && t <= 'z') || (t >= 'A' && t <= 'Z') ||
               (t >= '0' && t <= '9');
      if (!a) break;
      token.push_back(t >= 'A' && t <= 'Z' ? static_cast<char>(t - 'A' + 'a')
                                           : t);
      ++i;
    }
    if (wanted.count(token) > 0) {
      out += open;
      out.append(text, start, i - start);
      out += close;
    } else {
      out.append(text, start, i - start);
    }
  }
  return out;
}

std::vector<QueryHit> Engine::SearchTopK(
    const std::vector<std::string>& keywords, size_t k,
    Semantics semantics) const {
  return Run({.keywords = keywords, .k = k, .semantics = semantics,
              .deadline = {}})
      .hits;
}

std::vector<BatchQueryResult> Engine::RunBatch(
    const std::vector<BatchQuery>& queries, size_t threads,
    bool collect_traces) const {
  std::vector<BatchQueryResult> results(queries.size());
  // Workers write to pre-sized, index-disjoint slots; the shared indexes
  // are read-only, so no synchronization beyond the join is needed.
  ParallelFor(queries.size(), threads, [&](size_t i) {
    std::unique_ptr<obs::QueryTrace> trace;
    if (collect_traces) trace = std::make_unique<obs::QueryTrace>();
    results[i] = Run(queries[i], trace.get());
    results[i].trace = std::move(trace);
  });
  return results;
}

ExplainResult Engine::Explain(const BatchQuery& query) const {
  ExplainResult explained;
  BatchQueryResult result = Run(query, &explained.trace);
  explained.hits = std::move(result.hits);
  explained.join_stats = result.join_stats;
  explained.accounting = std::move(result.accounting);
  return explained;
}

ExplainResult Engine::Explain(const std::vector<std::string>& keywords,
                              size_t k, Semantics semantics) const {
  return Explain(
      {.keywords = keywords, .k = k, .semantics = semantics, .deadline = {}});
}

uint32_t Engine::Frequency(const std::string& keyword) const {
  return jdewey_index().Frequency(keyword);
}

}  // namespace xtopk
