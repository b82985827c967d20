#ifndef XTOPK_CORE_ENGINE_H_
#define XTOPK_CORE_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/join_search.h"
#include "core/search_result.h"
#include "core/topk_search.h"
#include "index/index_builder.h"
#include "index/jdewey_index.h"
#include "index/topk_index.h"
#include "obs/accounting.h"
#include "obs/trace.h"
#include "util/deadline.h"
#include "util/status.h"
#include "xml/tokenizer.h"
#include "xml/xml_tree.h"

namespace xtopk {

/// Engine construction options.
struct EngineOptions {
  IndexBuildOptions index;
  /// Planner / scoring defaults applied to queries unless overridden.
  ScoringParams scoring;
};

/// A materialized search answer with presentation context.
struct QueryHit {
  NodeId node = kInvalidNode;
  uint32_t level = 0;
  double score = 0.0;
  std::string tag;      ///< Element tag of the answer root.
  std::string snippet;  ///< Direct text of the answer root (may be empty).
};

/// One query: what Engine::Run, UpdatableEngine::Run and every entry point
/// built on them (Search, SearchTopK, RunBatch, Explain) execute.
struct BatchQuery {
  std::vector<std::string> keywords;
  /// 0 = complete result set (join-based Algorithm 1); > 0 = top-k.
  size_t k = 0;
  Semantics semantics = Semantics::kElca;
  /// Per-query time budget (default unbounded). Checked at level/column
  /// boundaries and TermSource::Resolve call sites; on expiry the result
  /// carries the partial answer and status kDeadlineExceeded.
  DeadlineToken deadline;
};

/// Result of one batch query, with its race-free per-query counters.
struct BatchQueryResult {
  std::vector<QueryHit> hits;
  /// kDeadlineExceeded when the query's deadline expired mid-execution
  /// (hits then hold the proven partial answer); non-ok on resolution
  /// failures the search layers surface. Ok otherwise.
  Status status = Status::Ok();
  /// Complete-search queries only (k == 0); top-k queries leave defaults.
  JoinSearchStats join_stats;
  /// What this query cost: pages, decoded bytes, cache traffic, joined
  /// rows, wall/CPU time, planner mode. Filled for every query.
  obs::ResourceAccounting accounting;
  /// Per-query span tree; set only when RunBatch collects traces (or the
  /// query ran through Explain). Single-query and batch execution share one
  /// code path, so the trace carries identical span/stat fields either way.
  std::unique_ptr<obs::QueryTrace> trace;
};

/// Engine::Explain output: the query's answers plus the span tree of its
/// execution. `trace.Render()` gives the human-readable EXPLAIN tree,
/// `trace.ToJson()` the machine-readable profile.
struct ExplainResult {
  std::vector<QueryHit> hits;
  /// Complete-search queries only (k == 0).
  JoinSearchStats join_stats;
  obs::QueryTrace trace;
  /// Per-query resource bill (same struct RunBatch results carry).
  obs::ResourceAccounting accounting;
};

/// Stable digest of a result set: 16-hex-digit FNV-1a over every hit's
/// (node, level, score rounded via %.9g). Two runs that return the same
/// answers produce the same fingerprint; tools/xtopk_replay compares these
/// instead of shipping full result sets around.
std::string ResultFingerprint(const std::vector<QueryHit>& hits);

/// The analyzer both engines apply to raw query keywords: the index's
/// tokenizer, multi-token inputs expand, duplicates drop, order is
/// first-occurrence.
std::vector<std::string> NormalizeKeywords(
    const Tokenizer::Options& tokenizer,
    const std::vector<std::string>& keywords);

/// The one query path of both engines. Normalizes the keywords, runs
/// JoinSearch (k == 0) or TopKSearch over `source`, materializes the hits
/// against `tree`, and does the per-query bookkeeping: the tokenize /
/// term_lookup / materialize spans, the ResourceAccounting bill, the
/// engine.* metrics and the slow-log capture. `prebuilt`, when set,
/// supplies the top-K score order; its lists must be the ones `source`
/// resolves (Engine passes its TopKIndex, the segmented engine null).
/// `trace` may be null (zero tracing cost); the result's `trace` member
/// is left empty — callers own the trace.
BatchQueryResult RunQuery(const XmlTree& tree, const EngineOptions& options,
                          TermSource* source, const TopKIndex* prebuilt,
                          PlanCache* plan_cache, const BatchQuery& query,
                          obs::QueryTrace* trace = nullptr);

/// Marks every occurrence of `keywords` (tokenizer-normalized, whole-token
/// matches, case-insensitive) in `text` with `open`/`close`, e.g.
/// "xml [data] management" for keyword "data". Presentation helper for
/// QueryHit snippets.
std::string HighlightKeywords(const std::string& text,
                              const std::vector<std::string>& keywords,
                              const std::string& open = "[",
                              const std::string& close = "]");

/// The library facade: builds the indexes for one document and runs keyword
/// queries under either semantics.
///
///   XmlTree doc = ParseXmlStringOrDie(xml);
///   Engine engine(doc);
///   auto all  = engine.Search({"xml", "data"}, Semantics::kElca);
///   auto topk = engine.SearchTopK({"xml", "data"}, 10);
///
/// The tree must outlive the engine.
class Engine {
 public:
  explicit Engine(const XmlTree& tree, EngineOptions options = {});

  /// Complete result set (join-based Algorithm 1), scored and sorted by
  /// score descending.
  ///
  /// Query keywords are normalized through the same tokenizer the index
  /// used ("XML" matches, "top-k" splits into {top, k}); duplicates are
  /// dropped. This applies to every Search* method.
  std::vector<QueryHit> Search(const std::vector<std::string>& keywords,
                               Semantics semantics = Semantics::kElca) const;

  /// Top-k results: the join-based top-K algorithm (§IV) under its entry
  /// budget, giving way to the complete join plus a partial sort when the
  /// keywords are too weakly correlated to prove k results cheaply.
  std::vector<QueryHit> SearchTopK(const std::vector<std::string>& keywords,
                                   size_t k,
                                   Semantics semantics = Semantics::kElca) const;

  /// Runs one query with its deadline, status and accounting (RunQuery
  /// over the engine's indexes). Search, SearchTopK, RunBatch and Explain
  /// all run through here.
  BatchQueryResult Run(const BatchQuery& query,
                       obs::QueryTrace* trace = nullptr) const;

  /// Executes independent queries concurrently against the shared
  /// read-only indexes on a fixed pool of up to `threads` workers
  /// (util/parallel.h work stealing). The indexes are immutable after
  /// construction and every query gets its own search object, so results
  /// and per-query JoinSearchStats are bit-identical to running the
  /// queries one by one; results[i] always answers queries[i].
  /// `collect_traces` attaches a QueryTrace to every result — the same
  /// span tree Explain produces, since both run through one query path.
  std::vector<BatchQueryResult> RunBatch(const std::vector<BatchQuery>& queries,
                                         size_t threads,
                                         bool collect_traces = false) const;

  /// EXPLAIN/profile: runs `query` with tracing on and returns its span
  /// tree (tokenize → term lookup → per-level join rounds → materialize)
  /// alongside the answers.
  ExplainResult Explain(const BatchQuery& query) const;
  ExplainResult Explain(const std::vector<std::string>& keywords, size_t k = 0,
                        Semantics semantics = Semantics::kElca) const;

  /// Keyword frequency (inverted-list length); 0 for unknown keywords.
  uint32_t Frequency(const std::string& keyword) const;

  /// The index's analyzer applied to raw query keywords: multi-token
  /// inputs expand, duplicates drop, order is first-occurrence. Exposed so
  /// callers that key caches on queries (serve::ResultCache) normalize
  /// exactly the way Run will.
  std::vector<std::string> Normalize(
      const std::vector<std::string>& keywords) const;

  const XmlTree& tree() const { return tree_; }
  const JDeweyIndex& jdewey_index() const { return builder_->jdewey_index(); }
  const TopKIndex& topk_index() const { return topk_index_; }
  const IndexBuilder& builder() const { return *builder_; }
  /// The join-plan cache (tests assert hit/miss behavior through it).
  PlanCache& plan_cache() const { return plan_cache_; }

 private:
  const XmlTree& tree_;
  EngineOptions options_;
  /// Holds the one JDewey index the engine serves.
  std::unique_ptr<IndexBuilder> builder_;
  TopKIndex topk_index_;
  /// Shared join-plan cache (the indexes are immutable, so entries never
  /// go stale). mutable: Run is const and may plan from RunBatch's
  /// worker threads — PlanCache is internally synchronized.
  mutable PlanCache plan_cache_;
};

}  // namespace xtopk

#endif  // XTOPK_CORE_ENGINE_H_
