#ifndef XTOPK_STORAGE_HISTOGRAM_H_
#define XTOPK_STORAGE_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "storage/column.h"

namespace xtopk {

/// An equal-height histogram over the distinct JDewey values of one column
/// (one level of one term's inverted list). Because runs are maximal —
/// equal values are contiguous in row order (Property 3.1) — the distinct
/// values of a column are exactly its runs, so a histogram over runs is a
/// histogram over the JDewey value set at that level.
///
/// Buckets are disjoint closed integer intervals [lo, hi] in ascending
/// order, each carrying the number of distinct values inside it. Counts
/// are doubles so merged histograms (whose bucket boundaries are the union
/// of the inputs' boundaries, splitting counts piecewise-uniformly) stay
/// representable; histograms built directly from a column have integral
/// counts and are the only ones persisted.
///
/// The planner consumes two derived quantities:
///   - total(): estimated distinct-value count (= run count when exact);
///   - EstimateOverlap(other): expected |A ∩ B| of the two value sets,
///     per elementary interval min(min(da, db), da*db/width) — the
///     independence estimate capped by containment.
class LevelHistogram {
 public:
  struct Bucket {
    uint32_t lo = 0;     ///< smallest value covered (inclusive)
    uint32_t hi = 0;     ///< largest value covered (inclusive)
    double count = 0.0;  ///< distinct values inside [lo, hi]
  };

  LevelHistogram() = default;

  /// Builds an equal-height histogram over `column`'s runs with at most
  /// `max_buckets` buckets. Bucket boundaries land on observed values, so
  /// a histogram of <= max_buckets distinct values is exact.
  static LevelHistogram FromColumn(const Column& column, size_t max_buckets);

  /// Reconstructs a histogram from persisted buckets (manifest load).
  /// Returns false (leaving the histogram empty) when the buckets violate
  /// the invariants: ascending, disjoint, non-negative counts.
  bool AssignChecked(std::vector<Bucket> buckets);

  /// Merges `other` into this histogram: bucket boundaries become the
  /// union of both inputs' boundaries and step densities add, then the
  /// result is coalesced down to `max_buckets`. Exact for disjoint value
  /// sets (segments partition the node space); associative up to
  /// coalescing granularity.
  void Merge(const LevelHistogram& other, size_t max_buckets);

  /// Expected number of values shared with `other` under piecewise
  /// uniformity: per elementary interval min(min(da, db), da*db/width).
  double EstimateOverlap(const LevelHistogram& other) const;

  /// Expected number of values in [lo, hi].
  double EstimateInRange(uint32_t lo, uint32_t hi) const;

  double total() const { return total_; }
  bool empty() const { return buckets_.empty(); }
  const std::vector<Bucket>& buckets() const { return buckets_; }

 private:
  /// Greedily merges adjacent buckets (smallest combined count first)
  /// until at most `max_buckets` remain.
  void Coalesce(size_t max_buckets);

  std::vector<Bucket> buckets_;
  double total_ = 0.0;
};

/// Per-term statistics carried by an index or aggregated across segments:
/// the list's row count plus one histogram per JDewey level (levels[l-1]
/// describes level l). `levels` may be empty — "rows only" — when any
/// contributing part carries no histograms (an index built with
/// stats_buckets = 0, such as a memtable without statistics); the planner
/// then degrades to size-based estimates for that term.
struct TermStats {
  uint32_t rows = 0;
  std::vector<LevelHistogram> levels;

  bool has_histograms() const { return !levels.empty(); }

  /// Accumulates `other` into this stats object (histograms merged
  /// per level with `max_buckets` granularity). If either side has rows
  /// but no histograms the result keeps rows only.
  void Merge(const TermStats& other, size_t max_buckets);
};

/// Default histogram resolution: build-time buckets per level and the cap
/// applied when merging segment histograms into corpus-global ones.
inline constexpr size_t kDefaultStatsBuckets = 32;
inline constexpr size_t kMergedStatsBuckets = 96;

}  // namespace xtopk

#endif  // XTOPK_STORAGE_HISTOGRAM_H_
