#include "core/topk_star_join.h"

#include <algorithm>
#include <cassert>
#include <queue>
#include <unordered_set>

#include "obs/metrics.h"

namespace xtopk {

namespace {

// Mirrored once per Run() (never per tuple) so the hot loop stays free of
// atomic traffic; bucket_peak goes to a histogram because it is a per-run
// maximum, not a summable count.
void FlushStarJoinStatsToRegistry(const StarJoinStats& stats) {
  XTOPK_COUNTER("core.topk.star.runs").Add(1);
  XTOPK_COUNTER("core.topk.star.tuples_read").Add(stats.tuples_read);
  XTOPK_COUNTER("core.topk.star.early_emissions").Add(stats.early_emissions);
  XTOPK_HISTOGRAM("core.topk.star.bucket_peak").Record(stats.bucket_peak);
}

}  // namespace

VectorRankedSource::VectorRankedSource(std::vector<RankedTuple> tuples)
    : tuples_(std::move(tuples)) {
  assert(std::is_sorted(tuples_.begin(), tuples_.end(),
                        [](const RankedTuple& a, const RankedTuple& b) {
                          return a.score > b.score;
                        }));
}

const RankedTuple* VectorRankedSource::Peek() {
  return pos_ < tuples_.size() ? &tuples_[pos_] : nullptr;
}

void VectorRankedSource::Pop() { ++pos_; }

StarThreshold::StarThreshold(size_t k, bool group_mode)
    : k_(k),
      group_mode_(group_mode),
      head_(k, kExhausted),
      max_seen_(k, kExhausted),
      max_set_(k, false) {}

void StarThreshold::SetHeadScore(size_t source, double score) {
  head_[source] = score;
  if (!max_set_[source] && score != kExhausted) {
    max_seen_[source] = score;
    max_set_[source] = true;
  }
}

void StarThreshold::AddPartial(uint32_t mask, double sum) {
  groups_[mask].insert(sum);
}

void StarThreshold::RemovePartial(uint32_t mask, double sum) {
  auto it = groups_.find(mask);
  assert(it != groups_.end());
  auto pos = it->second.find(sum);
  assert(pos != it->second.end());
  it->second.erase(pos);
  if (it->second.empty()) groups_.erase(it);
}

double StarThreshold::Bound() const {
  double bound = kExhausted;
  if (!group_mode_) {
    // Classic bound: one input at its head score, the others at their max.
    for (size_t i = 0; i < k_; ++i) {
      if (head_[i] == kExhausted) continue;
      double b = head_[i];
      bool feasible = true;
      for (size_t j = 0; j < k_ && feasible; ++j) {
        if (j == i) continue;
        if (!max_set_[j]) {
          feasible = false;  // nothing ever read from j
        } else {
          b += max_seen_[j];
        }
      }
      if (feasible) bound = std::max(bound, b);
    }
    return bound;
  }

  // Grouped bound (§IV-B). Case 1: an id unseen everywhere.
  double case1 = 0.0;
  bool case1_feasible = true;
  for (size_t i = 0; i < k_; ++i) {
    if (head_[i] == kExhausted) {
      case1_feasible = false;
      break;
    }
    case1 += head_[i];
  }
  if (case1_feasible) bound = std::max(bound, case1);

  // Case 2: partially-joined ids, per group: ms(G_P) + Σ_{j∉P} s^j.
  for (const auto& [mask, sums] : groups_) {
    double b = *sums.rbegin();  // ms(G_P)
    bool feasible = true;
    for (size_t j = 0; j < k_ && feasible; ++j) {
      if (mask & (1u << j)) continue;
      if (head_[j] == kExhausted) {
        feasible = false;  // this partial can never complete
      } else {
        b += head_[j];
      }
    }
    if (feasible) bound = std::max(bound, b);
  }
  return bound;
}

TopKStarJoin::TopKStarJoin(std::vector<RankedSource*> sources,
                           StarJoinOptions options)
    : sources_(std::move(sources)), options_(options) {}

std::vector<StarJoinResultRow> TopKStarJoin::Run() {
  stats_ = StarJoinStats{};
  const size_t k = sources_.size();
  assert(k >= 1 && k <= 31);
  const uint32_t full_mask = k == 32 ? ~0u : ((1u << k) - 1);

  StarThreshold threshold(k, options_.group_threshold);
  for (size_t i = 0; i < k; ++i) {
    const RankedTuple* head = sources_[i]->Peek();
    threshold.SetHeadScore(i,
                           head ? head->score : StarThreshold::kExhausted);
  }

  struct Partial {
    uint32_t mask = 0;
    double sum = 0.0;
  };
  std::unordered_map<uint64_t, Partial> bucket;
  std::unordered_set<uint64_t> completed_ids;

  // Completed results not yet provably in the top k.
  struct Pending {
    uint64_t id;
    double score;
  };
  auto cmp = [](const Pending& a, const Pending& b) {
    if (a.score != b.score) return a.score < b.score;
    return a.id > b.id;
  };
  std::priority_queue<Pending, std::vector<Pending>, decltype(cmp)> pending(
      cmp);

  std::vector<StarJoinResultRow> emitted;
  size_t completed = 0;  // completed results (pending + emitted)
  size_t rr_next = 0;    // round-robin cursor

  auto flush = [&](bool inputs_live) {
    double bound = inputs_live ? threshold.Bound() : StarThreshold::kExhausted;
    // "Early" means the threshold proved the result safe while future
    // results were still possible (bound above -inf).
    bool early = bound != StarThreshold::kExhausted;
    while (!pending.empty() && emitted.size() < options_.k &&
           pending.top().score >= bound) {
      StarJoinResultRow row;
      row.id = pending.top().id;
      row.score = pending.top().score;
      row.emitted_early = early;
      if (early) ++stats_.early_emissions;
      emitted.push_back(row);
      pending.pop();
    }
  };

  while (emitted.size() < options_.k) {
    // Pick the next input: round-robin until k results exist, then the one
    // with the maximum next score (§IV-B step 1).
    size_t chosen = k;  // sentinel
    if (completed < options_.k) {
      for (size_t step = 0; step < k; ++step) {
        size_t i = (rr_next + step) % k;
        if (sources_[i]->Peek() != nullptr) {
          chosen = i;
          rr_next = (i + 1) % k;
          break;
        }
      }
    } else {
      double best = StarThreshold::kExhausted;
      for (size_t i = 0; i < k; ++i) {
        const RankedTuple* head = sources_[i]->Peek();
        if (head != nullptr && head->score > best) {
          best = head->score;
          chosen = i;
        }
      }
    }
    if (chosen == k) {  // every input exhausted
      flush(/*inputs_live=*/false);
      break;
    }

    RankedTuple tuple = *sources_[chosen]->Peek();
    sources_[chosen]->Pop();
    ++stats_.tuples_read;
    const RankedTuple* next = sources_[chosen]->Peek();
    threshold.SetHeadScore(
        chosen, next ? next->score : StarThreshold::kExhausted);

    // A completed id left the bucket; a later duplicate of it must not
    // start a second partial.
    if (completed_ids.count(tuple.id) > 0) {
      flush(/*inputs_live=*/true);
      continue;
    }

    uint32_t bit = 1u << chosen;
    Partial& partial = bucket[tuple.id];
    if (partial.mask & bit) {
      // Duplicate id within one input: keep the first (highest) score.
      flush(/*inputs_live=*/true);
      continue;
    }
    if (partial.mask != 0) threshold.RemovePartial(partial.mask, partial.sum);
    partial.mask |= bit;
    partial.sum += tuple.score;
    if (partial.mask == full_mask) {
      pending.push(Pending{tuple.id, partial.sum});
      ++completed;
      completed_ids.insert(tuple.id);
      bucket.erase(tuple.id);
    } else {
      threshold.AddPartial(partial.mask, partial.sum);
    }
    stats_.bucket_peak = std::max<uint64_t>(stats_.bucket_peak, bucket.size());

    flush(/*inputs_live=*/true);
  }
  FlushStarJoinStatsToRegistry(stats_);
  return emitted;
}

}  // namespace xtopk
