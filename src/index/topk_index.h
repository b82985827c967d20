#ifndef XTOPK_INDEX_TOPK_INDEX_H_
#define XTOPK_INDEX_TOPK_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/scoring.h"
#include "index/jdewey_index.h"

namespace xtopk {

/// One length group of a score-ordered inverted list (paper §IV-C, Fig. 7):
/// all rows whose JDewey sequences have the same length, ordered by their
/// local score g descending. Within one group the damping factor at any
/// column is a constant, so the g-order equals the damped-score order at
/// every level — the property the top-K algorithm's per-column cursors rely
/// on.
struct ScoreSegment {
  uint16_t length = 0;           ///< Sequence length shared by the group.
  std::vector<uint32_t> rows;    ///< JDeweyList rows, by score descending.
  float max_score = 0.0f;        ///< g of rows.front().
};

/// Score-ordered companion of one keyword's JDeweyList.
struct TopKList {
  const JDeweyList* base = nullptr;     ///< Column data + scores live here.
  std::vector<ScoreSegment> segments;   ///< Ascending by length.

  /// Segment with exactly `length`, or nullptr.
  const ScoreSegment* FindSegment(uint16_t length) const;

  /// Upper bound of any damped score at `level`:
  /// max over segments with length >= level of max_score * d(length-level).
  double MaxDampedScoreAt(uint32_t level, const ScoringParams& params) const;

  /// True iff some sequence in the list ends exactly at `level` (the
  /// paper's column-skip test).
  bool HasLength(uint32_t level) const;
};

/// Keyword -> score-ordered segments. Borrows the JDeweyIndex it was built
/// from (must outlive this index).
class TopKIndex {
 public:
  TopKIndex() = default;
  TopKIndex(TopKIndex&&) = default;
  TopKIndex& operator=(TopKIndex&&) = default;
  TopKIndex(const TopKIndex&) = delete;
  TopKIndex& operator=(const TopKIndex&) = delete;

  const TopKList* GetList(const std::string& term) const;

  const JDeweyIndex* base() const { return base_; }

  /// Serialized size in bytes: the column data plus per-row scores plus the
  /// per-segment row permutations (Table I "Top-K Join IL").
  uint64_t EncodedListBytes() const;

 private:
  friend TopKIndex BuildTopKIndexFrom(const JDeweyIndex& base);

  const JDeweyIndex* base_ = nullptr;
  std::vector<TopKList> lists_;  ///< aligned with base_->lists()
};

/// Derives the score-ordered top-K index from a JDeweyIndex alone — the
/// segments are a permutation of the base rows, so no tree or builder
/// state is needed. This is how a persisted index (the disk image,
/// stored with scores) becomes top-K queryable after loading. `base` must
/// outlive the result.
TopKIndex BuildTopKIndexFrom(const JDeweyIndex& base);

/// Derives one list's score-ordered segments (the per-term unit of
/// BuildTopKIndexFrom). Lets a posting source build top-K companions for
/// just the queried terms. `list` must outlive the result.
TopKList BuildTopKListFor(const JDeweyList& list);

}  // namespace xtopk

#endif  // XTOPK_INDEX_TOPK_INDEX_H_
