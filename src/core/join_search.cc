#include "core/join_search.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <functional>
#include <queue>

#include "core/dag_join.h"
#include "obs/accounting.h"
#include "obs/metrics.h"

namespace xtopk {
namespace {

/// Folds the final per-query counters into the process-wide registry (one
/// batch of relaxed adds per query, nothing per row). Also the per-query
/// attribution point: candidates are the rows this query materialized.
void FlushJoinStatsToRegistry(const JoinSearchStats& stats) {
  obs::AccountRowsJoined(stats.candidates);
  XTOPK_COUNTER("core.join.queries").Add(1);
  XTOPK_COUNTER("core.join.levels").Add(stats.levels_processed);
  XTOPK_COUNTER("core.join.candidates").Add(stats.candidates);
  XTOPK_COUNTER("core.join.results").Add(stats.results);
  XTOPK_COUNTER("core.join.rows_erased").Add(stats.rows_erased);
  XTOPK_COUNTER("core.join.erasure_touches").Add(stats.erasure_touches);
  XTOPK_COUNTER("core.join.merge_joins").Add(stats.join_ops.merge_joins);
  XTOPK_COUNTER("core.join.index_joins").Add(stats.join_ops.index_joins);
  XTOPK_COUNTER("core.join.gallop_joins").Add(stats.join_ops.gallop_joins);
  XTOPK_COUNTER("core.join.run_comparisons")
      .Add(stats.join_ops.run_comparisons);
  XTOPK_COUNTER("core.join.probes").Add(stats.join_ops.probes);
  XTOPK_COUNTER("core.join.gallops").Add(stats.join_ops.gallops);
  XTOPK_COUNTER("core.join.early_empty").Add(stats.join_ops.early_empty);
  if (stats.planned) XTOPK_COUNTER("core.plan.planned_queries").Add(1);
  if (stats.deadline_expired) {
    XTOPK_COUNTER("core.join.deadline_expirations").Add(1);
  }
  if (stats.floor_levels_skipped > 0) {
    XTOPK_COUNTER("core.join.floor_stops").Add(1);
  }
}

}  // namespace

JoinSearch::Erasure::Erasure(bool use_ranges, uint32_t rows,
                             uint64_t* touches)
    : use_ranges_(use_ranges), touches_(touches) {
  if (!use_ranges_) bitmap_.assign(rows, 0);
}

void JoinSearch::Erasure::EraseRange(uint32_t begin, uint32_t end) {
  if (use_ranges_) {
    ranges_.Add(begin, end);  // an append; merged at FinishLevel
    *touches_ += 1;
  } else {
    for (uint32_t r = begin; r < end; ++r) bitmap_[r] = 1;
    *touches_ += end - begin;
  }
}

uint32_t JoinSearch::Erasure::CountErased(uint32_t begin, uint32_t end) const {
  if (use_ranges_) {
    // Binary search plus a walk over the overlapped intervals (§III-E:
    // "the range checking is simply a binary search process").
    uint32_t overlap = ranges_.CountOverlap(begin, end);
    *touches_ += 2;
    return overlap;
  }
  uint32_t count = 0;
  for (uint32_t r = begin; r < end; ++r) count += bitmap_[r];
  *touches_ += end - begin;
  return count;
}

void JoinSearch::Erasure::FinishLevel() {
  if (use_ranges_) *touches_ += ranges_.Commit();
}

template <typename Fn>
void JoinSearch::Erasure::ForEachAlive(uint32_t begin, uint32_t end,
                                       Fn&& fn) const {
  if (use_ranges_) {
    ranges_.ForEachUncovered(begin, end, fn);
    return;
  }
  uint32_t r = begin;
  while (r < end) {
    while (r < end && bitmap_[r]) ++r;
    uint32_t lo = r;
    while (r < end && !bitmap_[r]) ++r;
    if (lo < r) fn(lo, r);
  }
}

JoinSearch::JoinSearch(TermSource* source, JoinSearchOptions options)
    : source_(source), options_(options) {}

JoinSearch::JoinSearch(const JDeweyIndex& index, JoinSearchOptions options)
    : owned_source_(std::make_unique<MemoryTermSource>(index)),
      options_(options) {
  source_ = owned_source_.get();
}

std::vector<SearchResult> JoinSearch::Search(
    const std::vector<std::string>& keywords) {
  return SearchWithTrace(keywords, nullptr);
}

std::vector<SearchResult> JoinSearch::SearchWithTrace(
    const std::vector<std::string>& keywords,
    std::vector<LevelTrace>* trace) {
  stats_ = JoinSearchStats{};
  last_status_ = Status::Ok();
  if (trace != nullptr) trace->clear();
  obs::ScopedSpan root(options_.trace, "join_search");
  root.Stat("keywords", static_cast<double>(keywords.size()));
  std::vector<SearchResult> results;
  if (keywords.empty()) {
    root.Label("termination", "empty_query");
    FlushJoinStatsToRegistry(stats_);
    return results;
  }

  // Deadline gate before any I/O: a query that arrives already expired
  // (e.g. it sat in an admission queue) must not touch the posting source.
  if (options_.deadline.expired()) {
    stats_.deadline_expired = true;
    last_status_ = Status::DeadlineExceeded("expired before list resolution");
    root.Label("termination", "deadline");
    FlushJoinStatsToRegistry(stats_);
    return results;
  }

  // Resolve inverted lists through the posting source (seed-first, bounded
  // loads on skip-capable sources); a missing keyword means no answers.
  std::vector<const JDeweyList*> lists;
  last_status_ =
      ResolveForJoin(source_, keywords, options_.compute_scores, &lists);
  if (!last_status_.ok()) {
    root.Label("termination", "resolve_error");
    FlushJoinStatsToRegistry(stats_);
    return results;
  }
  if (lists.empty()) {
    root.Label("termination", "missing_term");
    FlushJoinStatsToRegistry(stats_);
    return results;
  }
  const size_t k = lists.size();

  // The scan starts at the lowest level that every keyword reaches: there
  // cannot be an LCA of all keywords lower than min over lists of their
  // deepest occurrence level.
  uint32_t start_level = lists[0]->max_length;
  for (const JDeweyList* list : lists) {
    start_level = std::min(start_level, list->max_length);
  }

  // Join order + per-step algorithms. With the cost-based planner the
  // order comes from the histogram DP (cached per term set + index
  // watermark); otherwise it is the §III-C heuristic — shortest list
  // first, ties broken by term so the order is backend-independent.
  std::vector<size_t> sizes(k);
  for (size_t i = 0; i < k; ++i) sizes[i] = lists[i]->num_rows();
  std::shared_ptr<const JoinPlan> plan;
  if (options_.use_planner && !PlannerDisabledByEnv()) {
    uint64_t fingerprint = PlanFingerprint(keywords);
    uint64_t watermark = source_->PlanWatermark();
    if (options_.plan_cache != nullptr) {
      plan = options_.plan_cache->Lookup(fingerprint, watermark);
      stats_.plan_cache_hit = plan != nullptr;
    }
    if (plan == nullptr) {
      std::vector<TermPlanInput> inputs(k);
      for (size_t i = 0; i < k; ++i) {
        inputs[i].term = keywords[i];
        inputs[i].rows = lists[i]->num_rows();
        inputs[i].stats = source_->Stats(keywords[i]);
      }
      auto built = std::make_shared<JoinPlan>(
          PlanJoin(std::move(inputs), start_level, options_.planner));
      built->fingerprint = fingerprint;
      built->watermark = watermark;
      if (options_.plan_cache != nullptr) options_.plan_cache->Insert(built);
      plan = std::move(built);
    }
  }

  // Map plan steps (terms in join order) back to query positions; an
  // unmappable plan is discarded and the heuristic order takes over.
  std::vector<size_t> order;
  if (plan != nullptr) {
    order = MapPlanOrder(*plan, keywords, start_level);
    if (order.empty()) plan = nullptr;
  }
  if (plan == nullptr) {
    order = PlanJoinOrder(sizes, keywords);
  } else {
    stats_.planned = true;
  }
  if (options_.trace != nullptr) {
    obs::ScopedSpan plan_span(options_.trace, "join_plan");
    plan_span.Label("mode", plan == nullptr          ? "heuristic"
                            : plan->exact            ? "dp"
                                                     : "greedy");
    // Cache hit/miss is deliberately NOT a span label: traces of identical
    // queries must be field-for-field deterministic (engine_batch_test);
    // hit rates live in JoinSearchStats and the registry counters instead.
    if (plan != nullptr) plan_span.Stat("est_cost", plan->est_cost);
    std::string rendered;
    for (size_t j = 0; j < k; ++j) {
      if (j > 0) rendered += ",";
      rendered += keywords[order[j]];
    }
    plan_span.Label("order", rendered);
  }

  std::vector<Erasure> erasure;
  erasure.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    erasure.emplace_back(options_.use_range_check, lists[i]->num_rows(),
                         &stats_.erasure_touches);
  }

  std::vector<size_t> slot(k);  // query position -> join-order position
  for (size_t j = 0; j < k; ++j) slot[order[j]] = j;
  // Top-K floor: `kept` holds the k best scores so far, smallest on top.
  const bool floored = floor_k_ > 0;
  std::priority_queue<double, std::vector<double>, std::greater<double>> kept;

  for (uint32_t level = start_level; level >= 1; --level) {
    // Level boundary = deadline checkpoint: each level's joins and erasure
    // updates run to completion, so stopping here leaves a consistent
    // partial answer (every level processed so far is exact).
    if (options_.deadline.expired()) {
      stats_.deadline_expired = true;
      last_status_ = Status::DeadlineExceeded(
          "expired at level " + std::to_string(level) + " of " +
          std::to_string(start_level));
      break;
    }
    // The floor stops once no result here or shallower can reach the k-th
    // score — strictly below it, as a tie could still win on node id.
    const std::vector<double>& bound = floor_bounds_;
    const bool bounded = floored && level < bound.size();
    if (bounded && kept.size() == floor_k_ &&
        *std::max_element(bound.begin() + 1, bound.begin() + level + 1) <
            kept.top()) {
      stats_.floor_levels_skipped = level;
      break;
    }
    ++stats_.levels_processed;
    LevelTrace level_trace;
    level_trace.level = level;
    obs::ScopedSpan level_span(
        options_.trace, options_.trace != nullptr
                            ? "level_" + std::to_string(level)
                            : std::string());
    const JoinSearchStats before = stats_;

    // Left-deep pipeline over this level's columns in join order. The
    // merge/gallop/probe decision is re-made per step inside
    // IntersectColumns (§III-C dynamic optimization). Lists carrying DAG
    // data join their dedup columns and fan shared matches out afterwards
    // (bit-identical, see core/dag_join.h).
    std::vector<const JDeweyList*> ordered(k);
    for (size_t j = 0; j < k; ++j) ordered[j] = lists[order[j]];
    IntersectStepFn on_step;
    double step_start_us = 0.0;
    if (trace != nullptr || level_span.enabled()) {
      if (level_span.enabled()) step_start_us = options_.trace->NowMicros();
      on_step = [&](size_t j, JoinAlgo algo, uint64_t input_runs,
                    uint64_t output_matches) {
        JoinStepTrace step{order[j], algo, input_runs, output_matches, -1.0};
        if (plan != nullptr) step.est_output = plan->steps[j].est_out[level - 1];
        if (level_span.enabled()) {
          // One span per join step, timed from the previous step's end (the
          // level's seed for the first): Explain's est-vs-actual view.
          obs::QueryTrace& t = *options_.trace;
          double now_us = t.NowMicros();
          int id = t.AddClosedSpan("join_step", step_start_us,
                                   now_us - step_start_us);
          step_start_us = now_us;
          t.SetLabel(id, "term", keywords[step.query_position]);
          t.SetLabel(id, "algo", algo == JoinAlgo::kIndex    ? "index"
                                 : algo == JoinAlgo::kGallop ? "gallop"
                                                             : "merge");
          t.AddStat(id, "input_runs", static_cast<double>(input_runs));
          t.AddStat(id, "actual_out", static_cast<double>(output_matches));
          if (step.est_output >= 0.0) t.AddStat(id, "est_out", step.est_output);
        }
        level_trace.steps.push_back(step);
      };
    }
    std::deque<Run> dag_arena;  // backs translated runs for this level
    std::vector<JoinAlgo> algos;
    for (size_t j = 1; plan != nullptr && j < k; ++j) {
      algos.push_back(plan->steps[j].algos[level - 1]);
    }
    std::vector<LevelMatch> matches = IntersectListsAtLevel(
        ordered, level, plan != nullptr ? &algos : nullptr, options_.planner,
        &stats_.join_ops, on_step, &dag_arena);

    for (const LevelMatch& match : matches) {
      ++stats_.candidates;
      // match.runs[j] belongs to list order[j]; fetch per query position.
      auto run_of = [&](size_t i) { return match.runs[slot[i]]; };

      // ELCA (§III-E): every keyword keeps an occurrence not consumed by a
      // lower ELCA; a failed candidate erases nothing, so its occurrences
      // stay visible to ancestors. SLCA (§III-F): no occurrence below was
      // matched, and every match erases its runs for its ancestors to see.
      const bool elca = options_.semantics == Semantics::kElca;
      bool is_result = true;
      for (size_t i = 0; i < k && is_result; ++i) {
        const Run* run = run_of(i);
        uint32_t erased =
            erasure[i].CountErased(run->first_row, run->end_row());
        is_result = elca ? erased < run->count : erased == 0;
      }
      // A result at a level whose bound is below the floor's k-th score
      // cannot enter the top k: it is erased but neither scored nor mapped.
      const bool reachable = !bounded || kept.size() < floor_k_ ||
                             bound[level] >= kept.top();
      if (is_result && !reachable) ++stats_.floor_results_unscored;
      bool keep = is_result && reachable;

      double score = 0.0;
      if (keep && options_.compute_scores) {
        // Sum over keywords of the damped maximum among the occurrences
        // that belong to this result (non-erased rows of the run).
        for (size_t i = 0; i < k; ++i) {
          const Run* run = run_of(i);
          const JDeweyList* list = lists[i];
          double best = 0.0;
          erasure[i].ForEachAlive(
              run->first_row, run->end_row(), [&](uint32_t lo, uint32_t hi) {
                for (uint32_t row = lo; row < hi; ++row) {
                  double damped =
                      DampedScore(options_.scoring, list->scores[row],
                                  list->lengths[row], level);
                  best = std::max(best, damped);
                }
              });
          score += best;
        }
      }
      if (keep && floored) {
        // Ties with the k-th score stay: the node id may break them.
        keep = kept.size() < floor_k_ || score >= kept.top();
        if (keep) kept.push(score);
        if (kept.size() > floor_k_) kept.pop();
      }

      if (is_result || !elca) {
        for (size_t i = 0; i < k; ++i) {
          const Run* run = run_of(i);
          erasure[i].EraseRange(run->first_row, run->end_row());
          stats_.rows_erased += run->count;
        }
      }

      if (is_result) ++stats_.results;
      if (keep) {
        NodeId node = source_->NodeAt(level, match.value);
        assert(node != kInvalidNode);
        results.push_back(SearchResult{node, level, score});
      }
    }
    for (Erasure& e : erasure) e.FinishLevel();

    if (trace != nullptr) {
      level_trace.candidates = stats_.candidates - before.candidates;
      level_trace.results = stats_.results - before.results;
      level_trace.rows_erased = stats_.rows_erased - before.rows_erased;
      trace->push_back(std::move(level_trace));
    }
    if (level_span.enabled()) {
      auto delta = [&](const char* name, uint64_t now, uint64_t then) {
        level_span.Stat(name, static_cast<double>(now - then));
      };
      const JoinOpStats& ops = stats_.join_ops;
      delta("candidates", stats_.candidates, before.candidates);
      delta("results", stats_.results, before.results);
      delta("rows_erased", stats_.rows_erased, before.rows_erased);
      delta("merge_joins", ops.merge_joins, before.join_ops.merge_joins);
      delta("index_joins", ops.index_joins, before.join_ops.index_joins);
      delta("gallop_joins", ops.gallop_joins, before.join_ops.gallop_joins);
    }
  }
  if (root.enabled()) {
    root.Stat("levels", static_cast<double>(stats_.levels_processed));
    root.Stat("candidates", static_cast<double>(stats_.candidates));
    root.Stat("results", static_cast<double>(stats_.results));
    root.Stat("rows_erased", static_cast<double>(stats_.rows_erased));
    root.Stat("erasure_touches", static_cast<double>(stats_.erasure_touches));
    if (floored) {
      root.Stat("floor_levels_skipped", stats_.floor_levels_skipped);
      root.Stat("floor_results_unscored", stats_.floor_results_unscored);
    }
    root.Label("termination", stats_.deadline_expired       ? "deadline"
                              : stats_.floor_levels_skipped > 0 ? "topk_floor"
                                                                : "complete");
  }
  FlushJoinStatsToRegistry(stats_);
  return results;
}

}  // namespace xtopk
