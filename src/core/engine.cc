#include "core/engine.h"

#include <cstdio>
#include <unordered_set>

#include "obs/metrics.h"
#include "obs/slow_log.h"
#include "obs/windowed.h"
#include "util/parallel.h"
#include "util/timer.h"
#include "xml/tokenizer.h"

namespace xtopk {

namespace {

const char* PlannerModeName(bool planned, bool cache_hit) {
  if (!planned) return "heuristic";
  return cache_hit ? "planned_cached" : "planned";
}

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
    // %.9g makes the digest robust to sub-ulp score differences between
    // builds (FMA contraction and the like) while still distinguishing any
    // real scoring change.
    std::snprintf(buf, sizeof(buf), "%u:%u:%.9g;", hit.node, hit.level,
                  hit.score);
    blob += buf;
  }
  return obs::FingerprintHex(blob);
}

Engine::Engine(const XmlTree& tree, EngineOptions options)
    : tree_(tree), options_(options) {
  options_.index.scoring = options_.scoring;
  builder_ = std::make_unique<IndexBuilder>(tree_, options_.index);
  jdewey_index_ = builder_->BuildJDeweyIndex();
  topk_index_ = builder_->BuildTopKIndex(jdewey_index_);
}

std::vector<QueryHit> Engine::Materialize(
    const std::vector<SearchResult>& results) const {
  std::vector<QueryHit> hits;
  hits.reserve(results.size());
  for (const SearchResult& r : results) {
    QueryHit hit;
    hit.node = r.node;
    hit.level = r.level;
    hit.score = r.score;
    hit.tag = tree_.TagName(r.node);
    hit.snippet = tree_.text(r.node);
    hits.push_back(std::move(hit));
  }
  return hits;
}

std::vector<std::string> Engine::Normalize(
    const std::vector<std::string>& keywords) const {
  // Same analyzer as indexing; multi-token inputs expand, duplicates drop.
  Tokenizer tokenizer(options_.index.tokenizer);
  std::vector<std::string> normalized;
  std::unordered_set<std::string> seen;
  for (const std::string& keyword : keywords) {
    for (const std::string& token : tokenizer.Tokenize(keyword)) {
      if (seen.insert(token).second) normalized.push_back(token);
    }
  }
  return normalized;
}

BatchQueryResult Engine::RunQuery(const BatchQuery& query,
                                  obs::QueryTrace* trace) const {
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
    normalized = Normalize(query.keywords);
    span.Stat("keywords_in", static_cast<double>(query.keywords.size()));
    span.Stat("keywords_out", static_cast<double>(normalized.size()));
  }
  if (trace != nullptr) {
    // Directory-only probe: the searches resolve the lists themselves; this
    // span only surfaces the per-term frequencies in the EXPLAIN output.
    obs::ScopedSpan span(trace, "term_lookup");
    for (const std::string& term : normalized) {
      uint32_t freq = jdewey_index_.Frequency(term);
      span.Stat("terms", 1.0);
      span.Label(term, std::to_string(freq));
    }
  }

  if (query.k == 0) {
    JoinSearchOptions join_options;
    join_options.semantics = query.semantics;
    join_options.compute_scores = true;
    join_options.scoring = options_.scoring;
    join_options.plan_cache = &plan_cache_;
    join_options.deadline = query.deadline;
    join_options.trace = trace;
    JoinSearch search(jdewey_index_, join_options);
    std::vector<SearchResult> found = search.Search(normalized);
    obs::ScopedSpan span(trace, "materialize");
    SortByScoreDesc(&found);
    out.hits = Materialize(found);
    out.status = search.status();
    span.Stat("hits", static_cast<double>(out.hits.size()));
    out.join_stats = search.stats();
    out.accounting.planner_mode = PlannerModeName(
        search.stats().planned, search.stats().plan_cache_hit);
  } else {
    TopKSearchOptions topk_options;
    topk_options.semantics = query.semantics;
    topk_options.k = query.k;
    topk_options.scoring = options_.scoring;
    topk_options.plan_cache = &plan_cache_;
    topk_options.deadline = query.deadline;
    topk_options.trace = trace;
    TopKSearch search(topk_index_, topk_options);
    std::vector<SearchResult> found = search.Search(normalized);
    obs::ScopedSpan span(trace, "materialize");
    out.hits = Materialize(found);
    out.status = search.status();
    span.Stat("hits", static_cast<double>(out.hits.size()));
    out.accounting.planner_mode = PlannerModeName(
        search.stats().planned, search.stats().plan_cache_hit);
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

std::vector<QueryHit> Engine::Search(const std::vector<std::string>& keywords,
                                     Semantics semantics) const {
  BatchQuery query;
  query.keywords = keywords;
  query.k = 0;
  query.semantics = semantics;
  return RunQuery(query, nullptr).hits;
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
  BatchQuery query;
  query.keywords = keywords;
  query.k = k;
  query.semantics = semantics;
  return RunQuery(query, nullptr).hits;
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
    results[i] = RunQuery(queries[i], trace.get());
    results[i].trace = std::move(trace);
  });
  return results;
}

ExplainResult Engine::Explain(const BatchQuery& query) const {
  ExplainResult explained;
  BatchQueryResult result = RunQuery(query, &explained.trace);
  explained.hits = std::move(result.hits);
  explained.join_stats = result.join_stats;
  explained.accounting = std::move(result.accounting);
  return explained;
}

ExplainResult Engine::Explain(const std::vector<std::string>& keywords,
                              size_t k, Semantics semantics) const {
  BatchQuery query;
  query.keywords = keywords;
  query.k = k;
  query.semantics = semantics;
  return Explain(query);
}

uint32_t Engine::Frequency(const std::string& keyword) const {
  return jdewey_index_.Frequency(keyword);
}

}  // namespace xtopk
