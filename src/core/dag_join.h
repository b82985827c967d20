#ifndef XTOPK_CORE_DAG_JOIN_H_
#define XTOPK_CORE_DAG_JOIN_H_

#include <deque>
#include <vector>

#include "core/join_ops.h"
#include "index/dag.h"
#include "index/jdewey_index.h"

namespace xtopk {

/// The per-level intersection step of JoinSearch (and so of top-K's
/// complete route), made
/// structure-aware: when every list carries a deduplicated column at this
/// level's shared regions, the intersection runs over the dedup columns
/// (each shared subtree is joined ONCE) and the matches inside a
/// representative interval are fanned out to every instance afterwards —
/// value-shifted by the class's per-depth delta and row-shifted by each
/// term's per-instance row delta, then merged back into global value order.
/// The result is bit-identical to intersecting the full columns: same
/// match values, same order, and runs pointing at each instance's real
/// rows (so downstream erasure and scoring are untouched).
///
/// `ordered_lists` is in join order; `algos` non-null selects the planned
/// per-step algorithms (size k-1), null the dynamic heuristic. Translated
/// runs are materialized into `arena`, which must outlive every use of the
/// returned matches (a deque so grows never invalidate pointers).
///
/// Lists without DAG data (or levels without dedup columns) fall through
/// to the exact IntersectColumns path at zero overhead.
std::vector<LevelMatch> IntersectListsAtLevel(
    const std::vector<const JDeweyList*>& ordered_lists, uint32_t level,
    const std::vector<JoinAlgo>* algos, const PlannerOptions& planner,
    JoinOpStats* stats, const IntersectStepFn& on_step,
    std::deque<Run>* arena);

}  // namespace xtopk

#endif  // XTOPK_CORE_DAG_JOIN_H_
