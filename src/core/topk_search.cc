#include "core/topk_search.h"

#include <algorithm>
#include <cassert>
#include <queue>
#include <unordered_map>
#include <unordered_set>

#include "core/join_search.h"
#include "obs/accounting.h"
#include "obs/metrics.h"

namespace xtopk {
namespace {

/// One batch of relaxed adds per query — nothing per entry.
void FlushTopKStatsToRegistry(const TopKSearchStats& stats) {
  obs::AccountRowsJoined(stats.candidates);
  XTOPK_COUNTER("core.topk.queries").Add(1);
  XTOPK_COUNTER("core.topk.entries_read").Add(stats.entries_read);
  XTOPK_COUNTER("core.topk.excluded_skips").Add(stats.excluded_skips);
  XTOPK_COUNTER("core.topk.candidates").Add(stats.candidates);
  XTOPK_COUNTER("core.topk.early_emissions").Add(stats.early_emissions);
  XTOPK_COUNTER("core.topk.columns_processed").Add(stats.columns_processed);
  XTOPK_COUNTER("core.topk.columns_star_join").Add(stats.columns_star_join);
  XTOPK_COUNTER("core.topk.columns_value_skipped")
      .Add(stats.columns_value_skipped);
  if (stats.deadline_expired) {
    XTOPK_COUNTER("core.topk.deadline_expirations").Add(1);
  }
  if (stats.fell_back) XTOPK_COUNTER("core.topk.fallbacks").Add(1);
}

/// Static per-level bounds B(l) = Σ_i s_m^i(l), l in [1, start_level]
/// (§IV-C), summed in query keyword order as JoinSearch sums a score.
std::vector<double> LevelBounds(const std::vector<const TopKList*>& lists,
                                const ScoringParams& scoring) {
  uint32_t start_level = UINT32_MAX;
  for (const TopKList* list : lists) {
    start_level = std::min<uint32_t>(start_level, list->base->max_length);
  }
  std::vector<double> bounds(start_level + 1, 0.0);
  for (uint32_t l = 1; l <= start_level; ++l) {
    for (const TopKList* list : lists) {
      bounds[l] += list->MaxDampedScoreAt(l, scoring);
    }
  }
  return bounds;
}

uint64_t NodeKey(uint32_t level, uint32_t value) {
  return (static_cast<uint64_t>(level) << 32) | value;
}

/// Tracks which nodes were matched at deeper levels and answers the two
/// pruning questions of §IV-C: is an occurrence consumed (its path passes
/// through a found ELCA / matched LCA below the current column), and — for
/// SLCA — is a candidate an ancestor of an earlier match.
class SemanticPruner {
 public:
  explicit SemanticPruner(Semantics semantics) : semantics_(semantics) {}

  /// True iff `row` of `list` is consumed at `level`: some component of its
  /// sequence strictly below `level` is a recorded match.
  bool Excluded(const JDeweyList& list, uint32_t row, uint32_t level) const {
    if (found_.empty()) return false;
    for (uint32_t l = level + 1; l <= list.lengths[row]; ++l) {
      if (found_.count(NodeKey(l, list.Component(row, l))) > 0) return true;
    }
    return false;
  }

  /// Records a completed match at (level, value). For SLCA all ancestors of
  /// the match become blocked; `witness_list`/`witness_row` supply the
  /// ancestor path.
  void RecordMatch(uint32_t level, uint32_t value,
                   const JDeweyList& witness_list, uint32_t witness_row) {
    found_.insert(NodeKey(level, value));
    if (semantics_ == Semantics::kSlca) {
      for (uint32_t l = 1; l < level; ++l) {
        blocked_.insert(NodeKey(l, witness_list.Component(witness_row, l)));
      }
    }
  }

  /// SLCA only: true iff (level, value) is an ancestor of an earlier match.
  bool Blocked(uint32_t level, uint32_t value) const {
    return blocked_.count(NodeKey(level, value)) > 0;
  }

 private:
  Semantics semantics_;
  std::unordered_set<uint64_t> found_;
  std::unordered_set<uint64_t> blocked_;
};

/// Serves one keyword's entries at one column in descending damped-score
/// order by merging the length-grouped segments (§IV-C, Fig. 7): each
/// segment is already ordered, so a heap of segment cursors reconstructs
/// the column's complete order online. Excluded entries are skipped
/// transparently.
class ColumnCursor {
 public:
  struct Entry {
    uint32_t row = 0;
    uint32_t value = 0;
    double score = 0.0;  ///< damped to the cursor's level
  };

  ColumnCursor(const TopKList& list, uint32_t level,
               const ScoringParams& params, const SemanticPruner& pruner,
               TopKSearchStats* stats)
      : list_(list), level_(level), pruner_(pruner), stats_(stats) {
    for (const ScoreSegment& seg : list.segments) {
      if (seg.length < level) continue;
      SegCursor cursor;
      cursor.seg = &seg;
      cursor.pos = 0;
      cursor.damp = Damp(params, seg.length - level);
      cursor.cached_head = cursor.HeadScore(*list.base);
      cursors_.push_back(cursor);
    }
    std::make_heap(cursors_.begin(), cursors_.end(), HeapLess);
    Settle();
  }

  /// Next non-excluded entry, or nullptr when the column is exhausted.
  const Entry* Peek() const { return has_head_ ? &head_ : nullptr; }

  void Pop() {
    assert(has_head_);
    AdvanceTop();
    Settle();
  }

 private:
  struct SegCursor {
    const ScoreSegment* seg = nullptr;
    size_t pos = 0;
    double damp = 1.0;
    double cached_head = 0.0;

    double HeadScore(const JDeweyList& list) const {
      return static_cast<double>(list.scores[seg->rows[pos]]) * damp;
    }
    bool Exhausted() const { return pos >= seg->rows.size(); }
  };

  // Max-heap by head score: "less" compares ascending.
  static bool HeapLess(const SegCursor& a, const SegCursor& b) {
    return a.cached_head < b.cached_head;
  }

  void AdvanceTop() {
    std::pop_heap(cursors_.begin(), cursors_.end(), HeapLess);
    SegCursor& cursor = cursors_.back();
    ++cursor.pos;
    if (cursor.Exhausted()) {
      cursors_.pop_back();
    } else {
      cursor.cached_head = cursor.HeadScore(*list_.base);
      std::push_heap(cursors_.begin(), cursors_.end(), HeapLess);
    }
  }

  /// Ensures head_ holds the next non-excluded entry.
  void Settle() {
    const JDeweyList& base = *list_.base;
    while (!cursors_.empty()) {
      const SegCursor& top = cursors_.front();
      uint32_t row = top.seg->rows[top.pos];
      if (pruner_.Excluded(base, row, level_)) {
        ++stats_->excluded_skips;
        AdvanceTop();
        continue;
      }
      head_.row = row;
      head_.score = top.cached_head;
      head_.value = base.Component(row, level_);
      has_head_ = true;
      return;
    }
    has_head_ = false;
  }

  const TopKList& list_;
  uint32_t level_;
  const SemanticPruner& pruner_;
  TopKSearchStats* stats_;
  std::vector<SegCursor> cursors_;
  Entry head_;
  bool has_head_ = false;
};

}  // namespace

TopKSearch::TopKSearch(const TopKIndex& index, TopKSearchOptions options)
    : memory_(std::in_place, *index.base()),
      source_(&*memory_),
      prebuilt_(&index),
      options_(options) {}

TopKSearch::TopKSearch(TermSource* source, TopKSearchOptions options,
                       const TopKIndex* prebuilt)
    : source_(source), prebuilt_(prebuilt), options_(options) {}

std::vector<SearchResult> TopKSearch::Search(
    const std::vector<std::string>& keywords) {
  stats_ = TopKSearchStats{};
  last_status_ = Status::Ok();
  query_lists_.clear();
  obs::ScopedSpan root(options_.trace, "topk_search");
  root.Stat("keywords", static_cast<double>(keywords.size()));
  root.Stat("k", static_cast<double>(options_.k));
  std::vector<SearchResult> emitted;
  auto finish = [&](const char* termination) {
    root.Label("termination", termination);
    FlushTopKStatsToRegistry(stats_);
    return std::move(emitted);
  };
  if (keywords.empty() || options_.k == 0) return finish("empty_query");

  // Deadline gate before any resolution work: a query that expired in an
  // admission queue must not touch the posting source at all.
  auto deadline_stop = [&](const char* where) {
    stats_.deadline_expired = true;
    last_status_ = Status::DeadlineExceeded(where);
    return finish("deadline");
  };
  if (options_.deadline.expired()) {
    return deadline_stop("expired before list resolution");
  }

  // Every term is materialized in full (score-ordered access touches
  // arbitrary rows, so bounded loads don't apply) and paired with its
  // score order. Two phases — a later Resolve may move earlier lists, so
  // pointers are taken once every term is loaded. Queries too wide for the
  // star join's source mask resolve nothing here: the complete route
  // resolves for itself.
  std::vector<const TopKList*> lists;
  if (keywords.size() <= kMaxStarJoinSources) {
    for (const std::string& kw : keywords) {
      // Resolve call site = deadline checkpoint: each materialization may
      // cost real I/O, so the budget is re-checked before every term.
      if (options_.deadline.expired()) {
        return deadline_stop("expired during list resolution");
      }
      if (source_->Frequency(kw) == 0) return finish("missing_term");
      auto list = source_->Resolve(kw, UINT32_MAX, true, nullptr);
      if (!list.ok() || *list == nullptr) {
        last_status_ = list.ok() ? Status::Ok() : list.status();
        return finish(list.ok() ? "missing_term" : "resolve_error");
      }
    }
    lists.reserve(keywords.size());
    if (prebuilt_ == nullptr) query_lists_.reserve(keywords.size());
    for (const std::string& kw : keywords) {
      if (options_.deadline.expired()) {
        return deadline_stop("expired during list resolution");
      }
      auto list = source_->Resolve(kw, UINT32_MAX, true, nullptr);
      if (!list.ok()) {
        last_status_ = list.status();
        return finish("resolve_error");
      }
      if (prebuilt_ != nullptr) {
        lists.push_back(prebuilt_->GetList(kw));
      } else {
        lists.push_back(&query_lists_.emplace_back(BuildTopKListFor(**list)));
      }
      assert(lists.back()->base == *list);
    }
  }

  bool proven = false;
  std::vector<double> bounds;
  if (!lists.empty()) {
    bounds = LevelBounds(lists, options_.scoring);
    uint64_t budget = UINT64_MAX;
    if (options_.fallback_to_complete) {
      uint64_t total_rows = 0;
      for (const TopKList* list : lists) total_rows += list->base->num_rows();
      budget = stats_.budget = total_rows / kStarJoinBudgetDivisor;
      root.Stat("budget", static_cast<double>(budget));
    }
    proven = StarJoin(lists, bounds, budget, &emitted);
  }
  if (!proven) emitted = CompleteJoin(keywords, bounds, std::move(emitted));
  if (root.enabled()) {
    root.Label("strategy",
               stats_.fell_back ? "complete_fallback" : "star_join");
    root.Stat("entries_read", static_cast<double>(stats_.entries_read));
    root.Stat("excluded_skips", static_cast<double>(stats_.excluded_skips));
    root.Stat("candidates", static_cast<double>(stats_.candidates));
    root.Stat("early_emissions",
              static_cast<double>(stats_.early_emissions));
    root.Stat("columns_processed",
              static_cast<double>(stats_.columns_processed));
    root.Stat("results", static_cast<double>(emitted.size()));
  }
  if (stats_.deadline_expired) return finish("deadline");
  if (!last_status_.ok()) return finish("resolve_error");
  if (stats_.fell_back) return finish("complete");
  return finish(emitted.size() >= options_.k ? "k_reached"
                                             : "columns_exhausted");
}

std::vector<SearchResult> TopKSearch::CompleteJoin(
    const std::vector<std::string>& keywords,
    const std::vector<double>& level_bounds, std::vector<SearchResult> proven) {
  stats_.fell_back = true;
  JoinSearchOptions join_options;
  join_options.semantics = options_.semantics;
  join_options.scoring = options_.scoring;
  join_options.plan_cache = options_.plan_cache;
  join_options.deadline = options_.deadline;
  join_options.trace = options_.trace;
  JoinSearch search(source_, join_options);
  search.floor_k_ = options_.k;
  search.floor_bounds_ = level_bounds;
  std::vector<SearchResult> results = search.Search(keywords);  // ⊇ top k
  stats_.planned = search.stats().planned;
  stats_.plan_cache_hit = search.stats().plan_cache_hit;
  last_status_ = search.status();
  if (search.stats().deadline_expired) {
    // A partial complete set need not hold the true top k; what the star
    // join proved before it gave way is still a correct prefix.
    stats_.deadline_expired = true;
    return proven;
  }
  if (!last_status_.ok()) return {};
  const size_t n = std::min(options_.k, results.size());
  std::partial_sort(results.begin(), results.begin() + n, results.end(),
                    ScoreDescLess);
  results.resize(n);
  return results;
}

bool TopKSearch::StarJoin(const std::vector<const TopKList*>& lists,
                          const std::vector<double>& column_bound,
                          uint64_t budget,
                          std::vector<SearchResult>* emitted_out) {
  std::vector<SearchResult>& emitted = *emitted_out;
  const size_t k_sources = lists.size();
  assert(k_sources <= kMaxStarJoinSources);  // Search routes wider queries
  const uint32_t full_mask = (1u << k_sources) - 1;

  const uint32_t start_level = static_cast<uint32_t>(column_bound.size()) - 1;

  // The running maximum of the static column bounds over the columns above
  // the current one (§IV-C; the paper's column-skip rule — a column no
  // sequence ends at is dominated by the one below — is subsumed by
  // precomputing every bound once per query).
  std::vector<double> best_above(start_level + 2, StarThreshold::kExhausted);
  for (uint32_t l = 2; l <= start_level + 1; ++l) {
    best_above[l] = std::max(best_above[l - 1], column_bound[l - 1]);
  }
  // best_above[l] = max bound of columns strictly above (shallower than) l.

  SemanticPruner pruner(options_.semantics);

  struct Pending {
    uint32_t level;
    uint32_t value;
    double score;
  };
  auto pending_less = [](const Pending& a, const Pending& b) {
    if (a.score != b.score) return a.score < b.score;
    if (a.level != b.level) return a.level < b.level;
    return a.value > b.value;
  };
  std::priority_queue<Pending, std::vector<Pending>, decltype(pending_less)>
      pending(pending_less);
  size_t completed_total = 0;  // pending + emitted (drives the scheduler)

  auto emit_ready = [&](double bound) {
    while (!pending.empty() && emitted.size() < options_.k &&
           pending.top().score >= bound) {
      const Pending& top = pending.top();
      NodeId node = source_->NodeAt(top.level, top.value);
      assert(node != kInvalidNode);
      emitted.push_back(SearchResult{node, top.level, top.score});
      pending.pop();
    }
  };

  for (uint32_t level = start_level; level >= 1 && emitted.size() < options_.k;
       --level) {
    // Column boundary = deadline checkpoint. Everything emitted so far was
    // proven against every remaining bound, so stopping here returns a
    // correct prefix of the true top-K.
    if (options_.deadline.expired()) {
      stats_.deadline_expired = true;
      last_status_ = Status::DeadlineExceeded(
          "expired at column " + std::to_string(level));
      break;
    }
    // Column boundary = budget checkpoint too.
    if (stats_.entries_read >= budget) return false;
    ++stats_.columns_processed;
    obs::ScopedSpan column_span(
        options_.trace, options_.trace != nullptr
                            ? "column_L" + std::to_string(level)
                            : std::string());
    const uint64_t entries_before = stats_.entries_read;
    const uint64_t candidates_before = stats_.candidates;
    const uint64_t excluded_before = stats_.excluded_skips;
    const size_t emitted_before_column = emitted.size();
    // Closing bookkeeping shared by both column modes (runs on `continue`
    // and on normal fall-through alike).
    auto close_column_span = [&](const char* mode, double threshold) {
      if (!column_span.enabled()) return;
      column_span.Label("mode", mode);
      column_span.Stat("entries_read",
                       static_cast<double>(stats_.entries_read -
                                           entries_before));
      column_span.Stat("candidates",
                       static_cast<double>(stats_.candidates -
                                           candidates_before));
      column_span.Stat("excluded_skips",
                       static_cast<double>(stats_.excluded_skips -
                                           excluded_before));
      column_span.Stat("emitted",
                       static_cast<double>(emitted.size() -
                                           emitted_before_column));
      column_span.Stat("pending", static_cast<double>(pending.size()));
      if (threshold != StarThreshold::kExhausted) {
        column_span.Stat("threshold", threshold);
      }
    };

    // Value-range skip: a completion needs one value present in every
    // keyword's column, so if the columns' [first, last] value ranges have
    // an empty intersection the whole level is a no-op — no candidates, no
    // pruner updates — and only the emission bookkeeping remains.
    uint32_t lo = 0, hi = UINT32_MAX;
    bool possible = true;
    for (const TopKList* list : lists) {
      const Column& col = list->base->column(level);
      if (col.empty()) {
        possible = false;
        break;
      }
      lo = std::max(lo, col.runs().front().value);
      hi = std::min(hi, col.runs().back().value);
    }
    if (!possible || lo > hi) {
      ++stats_.columns_value_skipped;
      emit_ready(best_above[level]);
      close_column_span("value_skip", best_above[level]);
      continue;
    }

    ++stats_.columns_star_join;
    std::vector<ColumnCursor> cursors;
    cursors.reserve(k_sources);
    for (const TopKList* list : lists) {
      cursors.emplace_back(*list, level, options_.scoring, pruner, &stats_);
    }

    StarThreshold threshold(k_sources, options_.group_threshold);
    for (size_t i = 0; i < k_sources; ++i) {
      const ColumnCursor::Entry* head = cursors[i].Peek();
      threshold.SetHeadScore(
          i, head ? head->score : StarThreshold::kExhausted);
    }

    struct Partial {
      uint32_t mask = 0;
      double sum = 0.0;
      size_t witness_source = 0;
      uint32_t witness_row = 0;
    };
    std::unordered_map<uint32_t, Partial> bucket;  // value -> partial
    std::unordered_set<uint32_t> completed_values;
    size_t rr_next = 0;

    while (emitted.size() < options_.k) {
      // Block boundary inside the star join: one clock read per
      // kDeadlineCheckStride consumed entries. Results already emitted are
      // proven; pending candidates stay unemitted (their dominance was
      // never established), so expiry cannot surface a wrong answer.
      if (stats_.entries_read % kDeadlineCheckStride == 0 &&
          options_.deadline.expired()) {
        stats_.deadline_expired = true;
        last_status_ = Status::DeadlineExceeded(
            "expired inside star join at column " + std::to_string(level));
        break;
      }
      // Scheduler (§IV-B): round-robin until k results exist, then the
      // source with the highest next damped score.
      size_t chosen = k_sources;
      if (completed_total < options_.k) {
        for (size_t step = 0; step < k_sources; ++step) {
          size_t i = (rr_next + step) % k_sources;
          if (cursors[i].Peek() != nullptr) {
            chosen = i;
            rr_next = (i + 1) % k_sources;
            break;
          }
        }
      } else {
        double best = StarThreshold::kExhausted;
        for (size_t i = 0; i < k_sources; ++i) {
          const ColumnCursor::Entry* head = cursors[i].Peek();
          if (head != nullptr && head->score > best) {
            best = head->score;
            chosen = i;
          }
        }
      }
      if (chosen == k_sources) break;  // column exhausted
      if (stats_.entries_read >= budget) {
        // Out of budget: the attempt is dropped, not extended — the
        // complete route recomputes every result.
        close_column_span("star_join", threshold.Bound());
        return false;
      }

      ColumnCursor::Entry entry = *cursors[chosen].Peek();
      cursors[chosen].Pop();
      ++stats_.entries_read;
      const ColumnCursor::Entry* next = cursors[chosen].Peek();
      threshold.SetHeadScore(
          chosen, next ? next->score : StarThreshold::kExhausted);

      if (completed_values.count(entry.value) == 0) {
        uint32_t bit = 1u << chosen;
        Partial& partial = bucket[entry.value];
        if ((partial.mask & bit) == 0) {  // set semantics: first arrival only
          if (partial.mask != 0) {
            threshold.RemovePartial(partial.mask, partial.sum);
          } else {
            partial.witness_source = chosen;
            partial.witness_row = entry.row;
          }
          partial.mask |= bit;
          partial.sum += entry.score;
          if (partial.mask == full_mask) {
            ++stats_.candidates;
            completed_values.insert(entry.value);
            // Completion implies ELCA validity: every source delivered a
            // non-excluded occurrence of this value.
            bool is_result = true;
            if (options_.semantics == Semantics::kSlca) {
              is_result = !pruner.Blocked(level, entry.value);
            }
            const JDeweyList& witness_list =
                *lists[partial.witness_source]->base;
            uint32_t witness_row = partial.witness_row;
            double sum = partial.sum;
            bucket.erase(entry.value);
            pruner.RecordMatch(level, entry.value, witness_list, witness_row);
            if (is_result) {
              pending.push(Pending{level, entry.value, sum});
              ++completed_total;
            }
          } else {
            threshold.AddPartial(partial.mask, partial.sum);
          }
        }
      }

      // Release every pending result that dominates both the star-join
      // bound of this column and the static bounds of all higher columns.
      double bound = std::max(threshold.Bound(), best_above[level]);
      size_t before = emitted.size();
      emit_ready(bound);
      stats_.early_emissions += emitted.size() - before;
    }

    if (stats_.deadline_expired) {
      // Mid-column stop: the star-join bound still holds for what was
      // consumed, but the column is incomplete — no release beyond what
      // the in-loop emit_ready already proved.
      close_column_span("star_join", threshold.Bound());
      break;
    }

    // Column done: only the higher columns can still produce results.
    emit_ready(best_above[level]);
    close_column_span("star_join", threshold.Bound());
  }

  // All columns processed: everything left is safe. On deadline expiry the
  // remaining pending candidates were never proven — they stay unemitted.
  if (!stats_.deadline_expired) emit_ready(StarThreshold::kExhausted);
  return true;
}

}  // namespace xtopk
