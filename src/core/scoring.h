#ifndef XTOPK_CORE_SCORING_H_
#define XTOPK_CORE_SCORING_H_

#include <cstdint>
#include <vector>

namespace xtopk {

/// Ranking parameters (paper §II-B).
///
/// The local score g(v, w) of an occurrence node v for keyword w is a
/// tf·idf value normalized into (0, 1]:
///     g = (1 + ln tf) * ln(1 + N / df)   then divided by the corpus max.
/// The damping d(Δl) = damping_base^Δl decreases an occurrence's
/// contribution with its vertical distance Δl to the ELCA/SLCA, and the
/// aggregation F is the (monotone) sum of per-keyword maxima.
struct ScoringParams {
  /// Base of the exponential damping function; must be in (0, 1).
  double damping_base = 0.9;
};

/// Computes the raw (unnormalized) tf·idf local score.
double RawLocalScore(uint32_t tf, uint64_t df, uint64_t corpus_nodes);

/// The one rule that turns raw term frequencies into local scores: each
/// tf in `scores` (one term's rows, stored as floats) becomes
/// float(RawLocalScore(tf, df, corpus_nodes) / max_raw), where `max_raw` is
/// the corpus max of RawLocalScore. IndexBuilder and
/// SegmentSetVersion::Resolve both score through here.
void ScoreRawTfs(uint64_t df, uint64_t corpus_nodes, double max_raw,
                 std::vector<float>* scores);

/// d(Δl): damping for a vertical distance of `delta` levels.
double Damp(const ScoringParams& params, uint32_t delta);

/// g · d(Δl) for an occurrence at level `occ_level` contributing to a
/// result at `result_level` (<= occ_level).
double DampedScore(const ScoringParams& params, double local_score,
                   uint32_t occ_level, uint32_t result_level);

}  // namespace xtopk

#endif  // XTOPK_CORE_SCORING_H_
