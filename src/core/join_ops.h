#ifndef XTOPK_CORE_JOIN_OPS_H_
#define XTOPK_CORE_JOIN_OPS_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/join_planner.h"
#include "storage/column.h"

namespace xtopk {

/// A value matched across several columns of one level, carrying the run of
/// each joined column (runs arrive in join order; JoinSearch remaps them to
/// query keyword order). The joins follow set semantics (§III-B): one match
/// per value, regardless of run lengths.
struct LevelMatch {
  uint32_t value = 0;
  std::vector<const Run*> runs;
};

/// Execution counters for the join operators (tests assert on the dynamic
/// optimizer through these; benches report them).
struct JoinOpStats {
  uint64_t merge_joins = 0;
  uint64_t index_joins = 0;
  uint64_t gallop_joins = 0;
  uint64_t run_comparisons = 0;  ///< merge/gallop cursor steps
  uint64_t probes = 0;           ///< index-join binary searches
  uint64_t gallops = 0;          ///< exponential searches performed
  /// Levels whose intersection emptied before the last column, skipping
  /// the remaining steps (an empty left side would otherwise still be fed
  /// to ChooseJoinAlgo as a degenerate merge).
  uint64_t early_empty = 0;
};

/// Sort-merge intersection of the current matches with `column` (both are
/// value-sorted). Appends the matching run to each surviving match.
std::vector<LevelMatch> MergeIntersect(std::vector<LevelMatch> matches,
                                       const Column& column,
                                       JoinOpStats* stats);

/// Like MergeIntersect, but advances the lagging cursor by exponential +
/// binary search instead of one step at a time, so the larger side is
/// skipped over in O(log distance) per gap. Chosen by the planner when the
/// sides are skewed (gallop_ratio); output is identical to MergeIntersect.
std::vector<LevelMatch> GallopIntersect(std::vector<LevelMatch> matches,
                                        const Column& column,
                                        JoinOpStats* stats);

/// Index-join intersection: binary-probes `column` for every current match
/// value. Preferable when |matches| << |column| (§III-C).
std::vector<LevelMatch> IndexIntersect(std::vector<LevelMatch> matches,
                                       const Column& column,
                                       JoinOpStats* stats);

/// Seeds the match list from a column's runs (the left-most input of the
/// left-deep join).
std::vector<LevelMatch> SeedMatches(const Column& column);

/// Observes one step of a left-deep intersection: position in join order,
/// the algorithm the planner picked, the right-hand column's run count, and
/// how many matches survived. The EXPLAIN hook.
using IntersectStepFn =
    std::function<void(size_t join_pos, JoinAlgo algo, uint64_t input_runs,
                       uint64_t output_matches)>;

/// The left-deep pipeline of Algorithm 1 for one level: seeds from
/// `columns[0]` and folds each subsequent column in, re-making the §III-C
/// dynamic merge/gallop/probe choice per step. `columns` must already be in
/// join order and non-null. This is THE intersection implementation — the
/// complete-result join and top-K's complete route both run it.
std::vector<LevelMatch> IntersectColumns(
    const std::vector<const Column*>& columns, const PlannerOptions& planner,
    JoinOpStats* stats, const IntersectStepFn& on_step = nullptr);

/// Plan-driven variant: step j (1-based over `columns`) runs
/// `algos[j - 1]`, fixed ahead of execution from the cost-based planner's
/// ESTIMATED sizes, instead of re-reading the observed sizes per step.
/// Output is identical to IntersectColumns — every operator computes the
/// same intersection — only the work differs. `algos` must have
/// columns.size() - 1 entries.
std::vector<LevelMatch> IntersectColumnsPlanned(
    const std::vector<const Column*>& columns,
    const std::vector<JoinAlgo>& algos, JoinOpStats* stats,
    const IntersectStepFn& on_step = nullptr);

}  // namespace xtopk

#endif  // XTOPK_CORE_JOIN_OPS_H_
