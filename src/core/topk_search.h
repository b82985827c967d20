#ifndef XTOPK_CORE_TOPK_SEARCH_H_
#define XTOPK_CORE_TOPK_SEARCH_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/plan_cache.h"
#include "core/scoring.h"
#include "core/search_result.h"
#include "core/topk_star_join.h"
#include "index/reader.h"
#include "index/topk_index.h"
#include "obs/trace.h"
#include "util/deadline.h"
#include "util/status.h"

namespace xtopk {

/// Options of the join-based top-K algorithm.
struct TopKSearchOptions {
  Semantics semantics = Semantics::kElca;
  size_t k = 10;
  /// Paper's grouped star-join threshold; false = classic TA-style bound.
  bool group_threshold = true;
  /// Shared plan cache (usually the engine's). Null plans per query.
  PlanCache* plan_cache = nullptr;
  /// Per-query time budget, checked at every TermSource::Resolve call
  /// site, at every column boundary, and every kDeadlineCheckStride
  /// entries inside a column's star join. Expiry stops the scan: Search
  /// returns only the results already proven (each emitted result's score
  /// dominated every remaining bound, so the partial answer is a prefix of
  /// the true top-K) and status() reports kDeadlineExceeded.
  DeadlineToken deadline;
  ScoringParams scoring;
  /// Per-query span tree ("topk_search" root, one span per column round
  /// with entries-read/threshold/emission stats). Null disables tracing at
  /// zero cost.
  obs::QueryTrace* trace = nullptr;
  /// Budgeted strategy (DESIGN.md §18): the star join may read at most
  /// Σ|L_i| / kStarJoinBudgetDivisor entries. When the budget runs out
  /// before k results are proven, the attempt is dropped and the query is
  /// answered by the complete join on the same lists under a top-K floor
  /// (it stops once no shallower level can beat the k-th score) plus a
  /// k-bounded partial sort. false keeps the unbounded star join (the paper's
  /// algorithm as Fig. 10 and ablation A2 measure it). Queries of more than
  /// kMaxStarJoinSources keywords take the complete route either way.
  bool fallback_to_complete = true;
};

struct TopKSearchStats {
  uint64_t entries_read = 0;     ///< score-ordered entries consumed
  uint64_t excluded_skips = 0;   ///< entries dropped by semantic pruning
  uint64_t candidates = 0;       ///< values completed across all keywords
  uint64_t early_emissions = 0;  ///< results released before exhaustion
  uint32_t columns_processed = 0;
  uint32_t columns_star_join = 0;      ///< columns the star join ran on
  uint32_t columns_value_skipped = 0;  ///< empty value-range intersection
  /// Whether the complete route carried a cost-based plan, and whether
  /// that plan came out of the cache.
  bool planned = false;
  bool plan_cache_hit = false;
  /// The deadline expired mid-query: the result set is a (possibly empty)
  /// prefix of the true top-K (status() is kDeadlineExceeded).
  bool deadline_expired = false;
  /// Star-join entry budget of the last query (0 when unbounded).
  uint64_t budget = 0;
  /// The last query was answered by the complete route: its star join ran
  /// out of budget or was ineligible. The star-join counters above keep
  /// what the dropped attempt did; planned/plan_cache_hit describe the
  /// complete join.
  bool fell_back = false;

  bool operator==(const TopKSearchStats&) const = default;
};

/// Star-join entries consumed between two deadline checks (block boundary
/// granularity: one clock read per stride, never per entry).
inline constexpr uint64_t kDeadlineCheckStride = 256;

/// The star join's entry budget is Σ|L_i| / kStarJoinBudgetDivisor.
inline constexpr uint64_t kStarJoinBudgetDivisor = 200;

/// Widest query the star join takes: it tracks partial completions in a
/// 32-bit source mask. Wider queries take the complete route.
inline constexpr size_t kMaxStarJoinSources = 31;

/// The join-based top-K keyword search (paper §IV-C): inverted lists are
/// served score-descending per column (length-grouped segments merged on
/// the fly), each column runs the top-K star join of §IV-B, the semantic
/// pruning excludes occurrences consumed by deeper results, and a result is
/// released as soon as its score dominates both the current column's
/// star-join bound and the static upper bounds of all higher columns. A
/// column whose keywords' value ranges (first/last run, the same min/max
/// the on-disk block skip directory carries) do not intersect cannot
/// complete any value and is skipped outright. Under the default budget a
/// star join that cannot prove k results cheaply gives way to the floored
/// complete join (see fallback_to_complete).
///
/// Every list is resolved, materialized and mapped back to nodes through
/// one TermSource; the two constructors differ only in where the
/// score-ordered TopKLists come from.
class TopKSearch {
 public:
  /// Over a prebuilt score-ordered index (the engine's steady-state path):
  /// reads go through a MemoryTermSource over `index.base()`, and the
  /// index's lists supply the score order, computed once at build time.
  /// `index` must outlive the TopKSearch.
  explicit TopKSearch(const TopKIndex& index, TopKSearchOptions options = {});

  /// Over any posting source: the queried terms' lists are materialized in
  /// full and their score-ordered segments derived per query (what the disk
  /// and segmented paths do anyway — only the touched terms pay), unless
  /// `prebuilt` supplies them; its lists must be the ones `source` resolves.
  /// `source` and `prebuilt` must outlive the TopKSearch.
  explicit TopKSearch(TermSource* source, TopKSearchOptions options = {},
                      const TopKIndex* prebuilt = nullptr);

  TopKSearch(const TopKSearch&) = delete;
  TopKSearch& operator=(const TopKSearch&) = delete;

  /// Returns up to `options.k` results in descending score order. An I/O
  /// failure inside the source yields an empty set — check status(). On
  /// deadline expiry the result is the star join's proven prefix (possibly
  /// empty), never the top k of a partial complete set.
  std::vector<SearchResult> Search(const std::vector<std::string>& keywords);

  /// Status of the last Search call's list resolution.
  const Status& status() const { return last_status_; }

  const TopKSearchStats& stats() const { return stats_; }

 private:
  /// The star join over `lists` under `column_bound`, appending proven
  /// results to `emitted`. Returns false when the budget ran out first.
  bool StarJoin(const std::vector<const TopKList*>& lists,
                const std::vector<double>& column_bound, uint64_t budget,
                std::vector<SearchResult>* emitted);

  /// The complete route: JoinSearch over the same posting source under a
  /// top-K floor of `level_bounds` (empty for queries too wide for the star
  /// join), then the k best in SortByScoreDesc order. `proven` is what the
  /// star join had proven; it is the answer if the deadline expires here.
  std::vector<SearchResult> CompleteJoin(
      const std::vector<std::string>& keywords,
      const std::vector<double>& level_bounds,
      std::vector<SearchResult> proven);

  /// Backs source_ for the TopKIndex constructor.
  std::optional<MemoryTermSource> memory_;
  TermSource* source_ = nullptr;
  /// Prebuilt score order (either constructor may set it); null derives
  /// it per query into query_lists_.
  const TopKIndex* prebuilt_ = nullptr;
  TopKSearchOptions options_;
  TopKSearchStats stats_;
  Status last_status_ = Status::Ok();
  /// Per-query score-ordered companions of the resolved lists (kept alive
  /// for the duration of Search).
  std::vector<TopKList> query_lists_;
};

}  // namespace xtopk

#endif  // XTOPK_CORE_TOPK_SEARCH_H_
