#ifndef XTOPK_CORE_TOPK_STAR_JOIN_H_
#define XTOPK_CORE_TOPK_STAR_JOIN_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <set>
#include <unordered_map>
#include <vector>

namespace xtopk {

/// A (join id, score) tuple of one ranked input.
struct RankedTuple {
  uint64_t id = 0;
  double score = 0.0;
};

/// A ranked input of the star join: tuples in descending score order.
class RankedSource {
 public:
  virtual ~RankedSource() = default;
  /// The next tuple, or nullptr when exhausted. Stable until Pop().
  virtual const RankedTuple* Peek() = 0;
  /// Consumes the peeked tuple.
  virtual void Pop() = 0;
};

/// RankedSource over an in-memory vector (tests, ablations, and the
/// relational example of paper Fig. 5).
class VectorRankedSource : public RankedSource {
 public:
  explicit VectorRankedSource(std::vector<RankedTuple> tuples);
  const RankedTuple* Peek() override;
  void Pop() override;

 private:
  std::vector<RankedTuple> tuples_;
  size_t pos_ = 0;
};

/// Upper bound on the score of any result not yet completed, for a k-way
/// star join (§IV-B).
///
/// The classic (HRJN / TA-style) bound is max_i (s^i + Σ_{j≠i} s_m^j).
/// The paper's bound groups the partially-joined tuples by the subset P of
/// inputs they were seen in and takes max_P (ms(G_P) + Σ_{j∉P} s^j), which
/// is never looser (Theorem in §IV-B; pinned by tests).
class StarThreshold {
 public:
  /// `group_mode` selects the paper's grouped bound; false = classic bound.
  StarThreshold(size_t k, bool group_mode);

  /// Updates s^i after input `source` advanced. Pass kExhausted when the
  /// input has no further tuples.
  void SetHeadScore(size_t source, double score);

  /// A partial result entered the bucket in group `mask` with score `sum`.
  void AddPartial(uint32_t mask, double sum);
  /// A partial result left group `mask` (moved groups or completed).
  void RemovePartial(uint32_t mask, double sum);

  /// Current upper bound for all unseen/incomplete results; -inf when no
  /// further result can appear.
  double Bound() const;

  static constexpr double kExhausted =
      -std::numeric_limits<double>::infinity();

 private:
  size_t k_;
  bool group_mode_;
  std::vector<double> head_;      // s^i, kExhausted when done
  std::vector<double> max_seen_;  // s_m^i (first head score)
  std::vector<bool> max_set_;
  /// Group G_P keyed by bit mask; multiset of partial sums.
  std::unordered_map<uint32_t, std::multiset<double>> groups_;
};

/// Options of the generic top-K star join.
struct StarJoinOptions {
  size_t k = 10;
  /// Use the paper's grouped threshold (§IV-B); false = classic bound
  /// (ablation A2 and the tightness tests).
  bool group_threshold = true;
};

struct StarJoinResultRow {
  uint64_t id = 0;
  double score = 0.0;
  /// True if the row was emitted before the inputs were exhausted (i.e.,
  /// the threshold proved it safe early).
  bool emitted_early = false;
};

struct StarJoinStats {
  uint64_t tuples_read = 0;
  uint64_t early_emissions = 0;
  uint64_t bucket_peak = 0;
};

/// The top-K star join R_1.id = ... = R_k.id with SUM scoring (§IV-B):
/// reads one tuple at a time (round-robin until k results exist, then from
/// the input with the highest next score), hash-joins partials, and emits a
/// completed result as soon as its score reaches the unseen-result bound.
/// An id is joined once per input: a later (lower-scored) occurrence in
/// the same input is ignored, also after the id has completed (§III-B).
class TopKStarJoin {
 public:
  TopKStarJoin(std::vector<RankedSource*> sources, StarJoinOptions options);

  /// Runs until `k` results are emitted or every input is exhausted.
  /// Results are in emission order (descending score).
  std::vector<StarJoinResultRow> Run();

  const StarJoinStats& stats() const { return stats_; }

 private:
  std::vector<RankedSource*> sources_;
  StarJoinOptions options_;
  StarJoinStats stats_;
};

}  // namespace xtopk

#endif  // XTOPK_CORE_TOPK_STAR_JOIN_H_
