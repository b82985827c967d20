#ifndef XTOPK_CORE_JOIN_SEARCH_H_
#define XTOPK_CORE_JOIN_SEARCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/join_ops.h"
#include "core/join_planner.h"
#include "core/plan_cache.h"
#include "core/scoring.h"
#include "core/search_result.h"
#include "index/reader.h"
#include "obs/trace.h"
#include "util/deadline.h"
#include "util/interval_set.h"
#include "util/status.h"

namespace xtopk {

/// Options of the complete-result join-based algorithm.
struct JoinSearchOptions {
  Semantics semantics = Semantics::kElca;
  /// Compute ranking scores for results (Fig. 9 experiments disable this;
  /// the engine enables it).
  bool compute_scores = true;
  /// Range-granular semantic pruning (§III-E). false switches to per-row
  /// erasure — the ablation A4 baseline.
  bool use_range_check = true;
  PlannerOptions planner;
  ScoringParams scoring;
  /// Cost-based planning: derive the join order AND each step's
  /// merge/gallop/index choice from histogram statistics (PlanJoin)
  /// instead of the observed-size heuristic. Results are bit-identical
  /// either way. The XTOPK_DISABLE_PLANNER environment variable (any
  /// value but "0") forces this off — the escape hatch for A/B runs.
  bool use_planner = true;
  /// Shared plan cache (usually owned by the engine). Null plans every
  /// query from scratch.
  PlanCache* plan_cache = nullptr;
  /// Per-query time budget, checked before list resolution and at every
  /// level boundary. Expiry stops the scan: Search returns the results of
  /// the levels already processed (a correct subset — deeper levels are
  /// complete, shallower ones untouched) and status() reports
  /// kDeadlineExceeded. Default-constructed = unbounded, zero cost.
  DeadlineToken deadline;
  /// Per-query span tree ("join_search" root, one span per level with
  /// candidates/results/erasure stats). Null disables tracing at zero cost.
  obs::QueryTrace* trace = nullptr;
};

/// Execution counters exposed for tests and benches.
struct JoinSearchStats {
  JoinOpStats join_ops;
  uint32_t levels_processed = 0;
  uint64_t candidates = 0;       ///< values matched across all lists
  uint64_t results = 0;
  uint64_t rows_erased = 0;      ///< total rows covered by semantic pruning
  /// Work units spent inside the erasure structure (ablation A4). Ranges:
  /// one per range erased, two per check (a binary search), one per range
  /// the level-boundary merge reads. Per-row: one per row touched.
  uint64_t erasure_touches = 0;
  uint32_t floor_levels_skipped = 0;    ///< top-K floor: levels left out
  uint64_t floor_results_unscored = 0;  ///< ... and results not scored
  /// Whether the last query ran a cost-based plan (vs the size heuristic)
  /// and whether that plan came out of the cache.
  bool planned = false;
  bool plan_cache_hit = false;
  /// The deadline expired mid-query: the result set covers only the levels
  /// processed before expiry (status() is kDeadlineExceeded).
  bool deadline_expired = false;
};

/// One join step inside a level (EXPLAIN output).
struct JoinStepTrace {
  size_t query_position = 0;  ///< which keyword's column was joined in
  JoinAlgo algo = JoinAlgo::kMerge;  ///< the dynamic three-way choice
  uint64_t input_runs = 0;    ///< right-hand column's run count
  uint64_t output_matches = 0;
  /// Planner's estimated output cardinality for this step; negative when
  /// the query ran the observed-size heuristic (no estimate exists).
  double est_output = -1.0;
};

/// Per-level EXPLAIN record of Algorithm 1's execution.
struct LevelTrace {
  uint32_t level = 0;
  std::vector<JoinStepTrace> steps;
  uint64_t candidates = 0;
  uint64_t results = 0;
  uint64_t rows_erased = 0;
};

/// Algorithm 1 (paper §III): evaluates a keyword query bottom-up with one
/// relational join per level per keyword pair, pruning ELCA/SLCA semantics
/// by erasing matched row ranges. Results come out lowest-level-first;
/// scores, when enabled, follow §II-B (sum over keywords of the damped
/// maximum among occurrences belonging to the result).
/// Under TopKSearch's top-K floor (DESIGN.md §18) it returns only results
/// reaching the k-th best score so far, stopping when no later level can.
class JoinSearch {
 public:
  /// Runs against any posting source (in-memory, disk session, segmented).
  /// `source` must outlive the JoinSearch.
  explicit JoinSearch(TermSource* source, JoinSearchOptions options = {});

  /// Convenience over an in-memory index (owns the adapter).
  explicit JoinSearch(const JDeweyIndex& index, JoinSearchOptions options = {});

  /// Evaluates `keywords`. Unknown keywords yield an empty result set.
  /// An I/O failure inside the source also yields an empty set — check
  /// status() to distinguish.
  std::vector<SearchResult> Search(const std::vector<std::string>& keywords);

  /// Search with an EXPLAIN trace: which join algorithm each step picked
  /// (the §III-C dynamic decision), and what each level produced/erased.
  std::vector<SearchResult> SearchWithTrace(
      const std::vector<std::string>& keywords,
      std::vector<LevelTrace>* trace);

  /// Status of the last Search call's list resolution (non-ok when the
  /// posting source failed, e.g. disk corruption past the retry budget).
  const Status& status() const { return last_status_; }

  /// Counters of the last Search call.
  const JoinSearchStats& stats() const { return stats_; }

 private:
  friend class TopKSearch;  // the only setter of the top-K floor
  /// Erasure state of one inverted list: either an interval set over rows
  /// (range checking; erasures show at the next FinishLevel) or a plain
  /// bitmap (ablation).
  class Erasure {
   public:
    Erasure(bool use_ranges, uint32_t rows, uint64_t* touches);
    void EraseRange(uint32_t begin, uint32_t end);
    uint32_t CountErased(uint32_t begin, uint32_t end) const;
    void FinishLevel();
    /// fn(lo, hi) over maximal non-erased sub-ranges of [begin, end).
    template <typename Fn>
    void ForEachAlive(uint32_t begin, uint32_t end, Fn&& fn) const;

   private:
    bool use_ranges_;
    IntervalSet ranges_;
    std::vector<char> bitmap_;
    uint64_t* touches_;  // not owned
  };

  TermSource* source_;                              // not owned
  std::unique_ptr<MemoryTermSource> owned_source_;  // legacy-ctor adapter
  JoinSearchOptions options_;
  JoinSearchStats stats_;
  Status last_status_ = Status::Ok();
  /// Top-K floor (k = 0: none). floor_bounds_[l] bounds the scores at level
  /// l, summed in keyword order as a score is; later levels are unbounded.
  size_t floor_k_ = 0;
  std::vector<double> floor_bounds_;
};

}  // namespace xtopk

#endif  // XTOPK_CORE_JOIN_SEARCH_H_
