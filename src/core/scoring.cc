#include "core/scoring.h"

#include <cassert>
#include <cmath>

namespace xtopk {

double RawLocalScore(uint32_t tf, uint64_t df, uint64_t corpus_nodes) {
  assert(tf > 0 && df > 0);
  double tf_weight = 1.0 + std::log(static_cast<double>(tf));
  double idf = std::log(1.0 + static_cast<double>(corpus_nodes) /
                                  static_cast<double>(df));
  return tf_weight * idf;
}

void ScoreRawTfs(uint64_t df, uint64_t corpus_nodes, double max_raw,
                 std::vector<float>* scores) {
  // One RawLocalScore per distinct tf; 0 marks a tf not scored yet (every
  // score is positive).
  std::vector<float> score_of;
  for (float& score : *scores) {
    uint32_t tf = static_cast<uint32_t>(score);
    if (tf >= score_of.size()) score_of.resize(tf + 1, 0.0f);
    if (score_of[tf] == 0.0f) {
      score_of[tf] =
          static_cast<float>(RawLocalScore(tf, df, corpus_nodes) / max_raw);
    }
    score = score_of[tf];
  }
}

double Damp(const ScoringParams& params, uint32_t delta) {
  return std::pow(params.damping_base, static_cast<double>(delta));
}

double DampedScore(const ScoringParams& params, double local_score,
                   uint32_t occ_level, uint32_t result_level) {
  assert(occ_level >= result_level);
  return local_score * Damp(params, occ_level - result_level);
}

}  // namespace xtopk
