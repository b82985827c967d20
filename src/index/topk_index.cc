#include "index/topk_index.h"

#include <algorithm>
#include <unordered_map>

#include "util/varint.h"

namespace xtopk {

const ScoreSegment* TopKList::FindSegment(uint16_t length) const {
  auto it = std::lower_bound(
      segments.begin(), segments.end(), length,
      [](const ScoreSegment& s, uint16_t len) { return s.length < len; });
  if (it != segments.end() && it->length == length) return &*it;
  return nullptr;
}

double TopKList::MaxDampedScoreAt(uint32_t level,
                                  const ScoringParams& params) const {
  double best = 0.0;
  for (const ScoreSegment& seg : segments) {
    if (seg.length < level) continue;
    double damped = static_cast<double>(seg.max_score) *
                    Damp(params, seg.length - level);
    best = std::max(best, damped);
  }
  return best;
}

bool TopKList::HasLength(uint32_t level) const {
  return FindSegment(static_cast<uint16_t>(level)) != nullptr;
}

TopKList BuildTopKListFor(const JDeweyList& jlist) {
  TopKList list;
  list.base = &jlist;
  // Group rows by sequence length, then order each group by score
  // descending (row-ascending tie-break for determinism). Groups are
  // counted first so every segment's rows are allocated at their size.
  std::unordered_map<uint16_t, std::vector<uint32_t>> groups;
  std::unordered_map<uint16_t, uint32_t> sizes;
  for (uint16_t length : jlist.lengths) ++sizes[length];
  for (const auto& [length, size] : sizes) groups[length].reserve(size);
  for (uint32_t row = 0; row < jlist.num_rows(); ++row) {
    groups[jlist.lengths[row]].push_back(row);
  }
  list.segments.reserve(groups.size());
  for (auto& [length, rows] : groups) {
    std::sort(rows.begin(), rows.end(), [&](uint32_t a, uint32_t b) {
      if (jlist.scores[a] != jlist.scores[b]) {
        return jlist.scores[a] > jlist.scores[b];
      }
      return a < b;
    });
    ScoreSegment seg;
    seg.length = length;
    seg.max_score = jlist.scores[rows.front()];
    seg.rows = std::move(rows);
    list.segments.push_back(std::move(seg));
  }
  std::sort(list.segments.begin(), list.segments.end(),
            [](const ScoreSegment& a, const ScoreSegment& b) {
              return a.length < b.length;
            });
  return list;
}

TopKIndex BuildTopKIndexFrom(const JDeweyIndex& base) {
  TopKIndex index;
  index.base_ = &base;
  index.lists_.resize(base.terms().size());
  for (uint32_t t = 0; t < base.terms().size(); ++t) {
    index.lists_[t] = BuildTopKListFor(base.lists()[t]);
  }
  return index;
}

const TopKList* TopKIndex::GetList(const std::string& term) const {
  // lists_ is aligned with the base index's lists, so the base's
  // dictionary answers the lookup.
  const JDeweyList* base_list =
      base_ == nullptr ? nullptr : base_->GetList(term);
  if (base_list == nullptr) return nullptr;
  return &lists_[base_list - base_->lists().data()];
}

uint64_t TopKIndex::EncodedListBytes() const {
  // Column data + scores, as measured by the base index...
  uint64_t total = base_->EncodedListBytes(/*include_scores=*/true);
  // ...plus the per-segment score-order permutations.
  for (const TopKList& list : lists_) {
    for (const ScoreSegment& seg : list.segments) {
      total += 4;  // segment header: length + row count
      for (uint32_t row : seg.rows) total += varint::LengthU64(row);
    }
  }
  return total;
}

}  // namespace xtopk
