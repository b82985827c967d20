#include "index/segment_view.h"

#include <sys/stat.h>

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <iterator>
#include <numeric>
#include <utility>

#include "core/scoring.h"
#include "index/index_access.h"
#include "index/segment_builder.h"
#include "obs/metrics.h"

namespace xtopk {

namespace {

uint64_t FileBytes(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

}  // namespace

std::shared_ptr<const SealedSegment> SealedSegment::FromMemory(
    JDeweyIndex segment, uint64_t covered_nodes) {
  auto sealed = std::shared_ptr<SealedSegment>(new SealedSegment());
  sealed->manifest_ = ManifestFromSegment(segment);
  sealed->manifest_.covered_nodes = covered_nodes;
  sealed->memory_ =
      std::make_unique<const JDeweyIndex>(std::move(segment));
  return sealed;
}

StatusOr<std::shared_ptr<const SealedSegment>> SealedSegment::FromDisk(
    const std::string& path, DiskIndexOptions options, uint64_t id) {
  StatusOr<std::shared_ptr<DiskIndexEnv>> env =
      DiskIndexEnv::Open(path, options);
  if (!env.ok()) return env.status();
  // The environment parsed the manifest once; a sealed segment cannot
  // serve without it (its stats feed the corpus-wide normalization).
  if (!(*env)->manifest().ok()) return (*env)->manifest().status();
  auto sealed = std::shared_ptr<SealedSegment>(new SealedSegment());
  sealed->env_ = *env;
  sealed->id_ = id;
  sealed->path_ = path;
  sealed->data_bytes_ = FileBytes(path);
  return std::shared_ptr<const SealedSegment>(std::move(sealed));
}

SealedSegment::~SealedSegment() {
  // Epoch reclamation: we are here because the last version referencing
  // this segment died, so no query can still be reading the file.
  if (superseded() && !path_.empty()) {
    env_.reset();  // close before unlink (harmless on POSIX, tidy anyway)
    std::remove(path_.c_str());
    std::remove((path_ + ".manifest").c_str());
  }
}

const SegmentTermStats* SealedSegment::FindTerm(
    const std::string& term) const {
  const std::vector<SegmentTermStats>& terms = manifest().terms;
  auto it = std::lower_bound(
      terms.begin(), terms.end(), term,
      [](const SegmentTermStats& a, const std::string& t) {
        return a.term < t;
      });
  return it != terms.end() && it->term == term ? &*it : nullptr;
}

uint32_t SealedSegment::MaxLengthOf(const std::string& term) const {
  if (memory_ != nullptr) {
    const JDeweyList* list = memory_->GetList(term);
    return list != nullptr ? list->max_length : 0;
  }
  return env_->MaxLength(term);
}

NodeId SealedSegment::NodeAt(uint32_t level, uint32_t value) const {
  return memory_ != nullptr ? memory_->NodeAt(level, value)
                            : env_->NodeAt(level, value);
}

uint32_t SealedSegment::max_level() const {
  return memory_ != nullptr ? memory_->max_level() : env_->max_level();
}

std::shared_ptr<const Memtable> Memtable::Extend(
    const std::shared_ptr<const Memtable>& predecessor, JDeweyIndex delta,
    size_t stats_buckets, const SealedSetState& sealed) {
  auto next = std::make_shared<Memtable>();
  const Memtable empty;
  const Memtable& prev = predecessor != nullptr ? *predecessor : empty;

  // The delta's terms in term order, merged with the predecessor's.
  std::vector<std::string>& terms = *IndexIoAccess::Terms(&delta);
  std::vector<JDeweyList>& lists = *IndexIoAccess::Lists(&delta);
  std::vector<TermStats>& stats = *IndexIoAccess::Stats(&delta);
  assert(stats.size() == lists.size() && "delta built without statistics");
  std::vector<uint32_t> order(terms.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&](uint32_t a, uint32_t b) { return terms[a] < terms[b]; });
  next->terms_.reserve(prev.terms_.size() + order.size());
  size_t i = 0;
  for (uint32_t t : order) {
    while (i < prev.terms_.size() && prev.terms_[i]->term < terms[t]) {
      next->terms_.push_back(prev.terms_[i++]);
    }
    auto entry = std::make_shared<Term>();
    const bool held =
        i < prev.terms_.size() && prev.terms_[i]->term == terms[t];
    entry->corpus = held ? prev.terms_[i]->corpus : sealed.Figures(terms[t]);
    entry->corpus.df += lists[t].num_rows();
    entry->corpus.max_tf = std::max(entry->corpus.max_tf, MaxTf(lists[t]));
    if (held) {
      entry->list = MergeJDeweyParts({&prev.terms_[i++]->list, &lists[t]});
      entry->stats = ComputeListStats(entry->list, stats_buckets);
    } else {
      entry->list = std::move(lists[t]);
      entry->list.nodes = {};
      entry->stats = std::move(stats[t]);
    }
    entry->term = std::move(terms[t]);
    next->terms_.push_back(std::move(entry));
  }
  next->terms_.insert(next->terms_.end(), prev.terms_.begin() + i,
                      prev.terms_.end());

  // The frontier, as a staircase: a pair joins unless a point of equal or
  // larger max tf has equal or smaller df, and evicts the points it beats.
  std::vector<TermFigures>& frontier = next->frontier_;
  for (const auto& entry : next->terms_) {
    const TermFigures pair = entry->corpus;
    auto above = std::lower_bound(
        frontier.begin(), frontier.end(), pair.max_tf,
        [](const TermFigures& f, uint32_t tf) { return f.max_tf < tf; });
    if (above != frontier.end() && above->df <= pair.df) continue;
    auto beaten = std::lower_bound(
        frontier.begin(), above, pair.df,
        [](const TermFigures& f, uint64_t df) { return f.df < df; });
    if (above != frontier.end() && above->max_tf == pair.max_tf) ++above;
    frontier.insert(frontier.erase(beaten, above), pair);
  }

  // Both node sets' (level, value) -> node pairs; shared ancestors appear
  // in both with identical pairs.
  const auto& added = IndexIoAccess::LevelNodes(delta);
  const std::vector<std::pair<uint32_t, NodeId>> none;
  next->level_nodes_.resize(
      std::max(prev.level_nodes_.size(), added.size()));
  for (size_t l = 0; l < next->level_nodes_.size(); ++l) {
    const auto& had =
        l < prev.level_nodes_.size() ? prev.level_nodes_[l] : none;
    const auto& add = l < added.size() ? added[l] : none;
    std::set_union(had.begin(), had.end(), add.begin(), add.end(),
                   std::back_inserter(next->level_nodes_[l]));
  }
  return next;
}

const Memtable::Term* Memtable::Find(const std::string& term) const {
  auto it = std::lower_bound(
      terms_.begin(), terms_.end(), term,
      [](const std::shared_ptr<const Term>& e, const std::string& t) {
        return e->term < t;
      });
  return it != terms_.end() && (*it)->term == term ? it->get() : nullptr;
}

NodeId Memtable::NodeAt(uint32_t level, uint32_t value) const {
  if (level == 0 || level > level_nodes_.size()) return kInvalidNode;
  const auto& nodes = level_nodes_[level - 1];
  auto it = std::lower_bound(
      nodes.begin(), nodes.end(), value,
      [](const std::pair<uint32_t, NodeId>& p, uint32_t v) {
        return p.first < v;
      });
  return it != nodes.end() && it->first == value ? it->second : kInvalidNode;
}

SealedSetState::SealedSetState(
    std::vector<std::shared_ptr<const SealedSegment>> sealed)
    : sealed_(std::move(sealed)) {}

void SealedSetState::LoadTermsLocked() const {
  if (terms_loaded_) return;
  terms_loaded_ = true;
  // K-way merge of the sorted manifests: one entry per distinct term.
  std::vector<size_t> pos(sealed_.size(), 0);
  size_t total = 0;
  for (const auto& seg : sealed_) total += seg->manifest().terms.size();
  terms_.reserve(total);
  for (;;) {
    const std::string* least = nullptr;
    for (size_t i = 0; i < sealed_.size(); ++i) {
      const auto& terms = sealed_[i]->manifest().terms;
      if (pos[i] < terms.size() &&
          (least == nullptr || terms[pos[i]].term < *least)) {
        least = &terms[pos[i]].term;
      }
    }
    if (least == nullptr) break;
    TermEntry entry;
    entry.term = least;
    for (size_t i = 0; i < sealed_.size(); ++i) {
      const auto& terms = sealed_[i]->manifest().terms;
      if (pos[i] < terms.size() && terms[pos[i]].term == *least) {
        entry.df += terms[pos[i]].rows;
        entry.max_tf = std::max(entry.max_tf, terms[pos[i]].max_tf);
        ++pos[i];
      }
    }
    terms_.push_back(entry);
  }

  // The frontier: terms grouped by max tf, each group in df order.
  std::vector<uint32_t> order(terms_.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (terms_[a].max_tf != terms_[b].max_tf) {
      return terms_[a].max_tf < terms_[b].max_tf;
    }
    return terms_[a].df < terms_[b].df;
  });
  for (uint32_t i : order) {
    if (frontier_.empty() || frontier_.back().first != terms_[i].max_tf) {
      frontier_.emplace_back(terms_[i].max_tf, std::vector<uint32_t>{});
    }
    frontier_.back().second.push_back(i);
  }
}

const SealedSetState::TermEntry* SealedSetState::FindLocked(
    const std::string& term) const {
  LoadTermsLocked();
  auto it = std::lower_bound(
      terms_.begin(), terms_.end(), term,
      [](const TermEntry& e, const std::string& t) { return *e.term < t; });
  return it != terms_.end() && *it->term == term ? &*it : nullptr;
}

TermFigures SealedSetState::Figures(const std::string& term) const {
  std::lock_guard<std::mutex> lock(mu_);
  const TermEntry* entry = FindLocked(term);
  return entry != nullptr ? TermFigures{entry->df, entry->max_tf}
                          : TermFigures{};
}

double SealedSetState::MaxRaw(const Memtable* memtable,
                              uint64_t corpus_nodes) const {
  // RawLocalScore is monotone in tf for a fixed df, so each term's max
  // raw score is attained at its max tf, and the normalizer is the max
  // over terms — exactly the max a monolithic build takes over every
  // occurrence. It is also non-increasing in df for a fixed tf, even in
  // floating point (distinct integer dfs put log's arguments far more
  // than an ulp apart), so a term another matches or beats in both never
  // sets the max. Terms the memtable holds take their corpus-wide figures
  // from its frontier...
  double max_raw = 0.0;
  uint64_t scanned = memtable != nullptr ? memtable->frontier().size() : 0;
  if (memtable != nullptr) {
    for (const TermFigures& f : memtable->frontier()) {
      max_raw = std::max(max_raw, RawLocalScore(f.max_tf, f.df, corpus_nodes));
    }
  }
  // ...the others their sealed ones: per max tf only the least-df term
  // the memtable does not hold can reach the max.
  std::lock_guard<std::mutex> lock(mu_);
  LoadTermsLocked();
  for (const auto& [max_tf, by_df] : frontier_) {
    for (uint32_t i : by_df) {
      ++scanned;
      const TermEntry& entry = terms_[i];
      if (memtable != nullptr && memtable->Find(*entry.term) != nullptr) {
        continue;
      }
      max_raw = std::max(max_raw,
                         RawLocalScore(max_tf, entry.df, corpus_nodes));
      break;
    }
  }
  XTOPK_COUNTER("index.max_raw_terms_scanned").Add(scanned);
  return max_raw > 0.0 ? max_raw : 1.0;
}

StatusOr<const JDeweyList*> SealedSetState::MergedList(
    const std::string& term, size_t* fanout) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto cached = lists_.find(term);
  if (cached != lists_.end()) {
    *fanout = cached->second.fanout;
    return &cached->second.list;
  }

  // Disk parts load through sessions that live only for this merge: the
  // merged list is what stays cached, so a session's own copy of each
  // loaded list would only be a second one.
  std::vector<std::unique_ptr<DiskJDeweyIndex>> sessions;
  std::vector<const JDeweyList*> parts;
  MergedTerm merged;
  for (const auto& seg : sealed_) {
    if (seg->FindTerm(term) == nullptr) continue;
    ++merged.fanout;
    if (seg->is_memory()) {
      const JDeweyList* list = seg->memory()->GetList(term);
      if (list != nullptr) parts.push_back(list);
    } else {
      sessions.push_back(seg->env()->NewSession());
      StatusOr<const JDeweyList*> loaded = sessions.back()->LoadList(
          term, UINT32_MAX, /*need_scores=*/true, /*level_bounds=*/nullptr);
      if (!loaded.ok()) return loaded.status();
      if (*loaded != nullptr) parts.push_back(*loaded);
    }
  }
  *fanout = merged.fanout;
  if (parts.empty()) return static_cast<const JDeweyList*>(nullptr);
  merged.list = MergeJDeweyParts(parts);
  sessions.clear();
  XTOPK_COUNTER("index.sealed_list_merges").Add(1);
  auto [it, inserted] = lists_.emplace(term, std::move(merged));
  (void)inserted;
  return &it->second.list;
}

const TermStats& SealedSetState::SealedStats(const std::string& term) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto cached = stats_.find(term);
  if (cached != stats_.end()) return cached->second;
  TermStats merged;
  for (const auto& seg : sealed_) {
    const SegmentTermStats* t = seg->FindTerm(term);
    if (t == nullptr || t->rows == 0) continue;
    merged.Merge(*t, kMergedStatsBuckets);
  }
  return stats_.emplace(term, std::move(merged)).first->second;
}

NodeId SealedSetState::NodeAt(uint32_t level, uint32_t value) const {
  for (const auto& seg : sealed_) {
    NodeId node = seg->NodeAt(level, value);
    if (node != kInvalidNode) return node;
  }
  return kInvalidNode;
}

uint32_t SealedSetState::max_level() const {
  uint32_t deepest = 0;
  for (const auto& seg : sealed_) {
    deepest = std::max(deepest, seg->max_level());
  }
  return deepest;
}

SegmentSetVersion::SegmentSetVersion(
    uint64_t version, std::shared_ptr<const SealedSetState> state,
    std::shared_ptr<const Memtable> memtable, uint64_t corpus_nodes)
    : version_(version),
      state_(std::move(state)),
      memtable_(std::move(memtable)),
      corpus_nodes_(corpus_nodes) {
  XTOPK_GAUGE("index.segment_versions_live").Add(1);
}

SegmentSetVersion::~SegmentSetVersion() {
  XTOPK_GAUGE("index.segment_versions_live").Add(-1);
}

const Memtable::Term* SegmentSetVersion::MemtableTerm(
    const std::string& term) const {
  return memtable_ != nullptr ? memtable_->Find(term) : nullptr;
}

uint32_t SegmentSetVersion::Frequency(const std::string& term) const {
  uint64_t total = 0;
  for (const auto& seg : sealed()) {
    const SegmentTermStats* t = seg->FindTerm(term);
    if (t != nullptr) total += t->rows;
  }
  const Memtable::Term* mem = MemtableTerm(term);
  if (mem != nullptr) total += mem->list.num_rows();
  return static_cast<uint32_t>(total);
}

uint32_t SegmentSetVersion::MaxLength(const std::string& term) const {
  uint32_t deepest = 0;
  for (const auto& seg : sealed()) {
    if (seg->FindTerm(term) == nullptr) continue;
    deepest = std::max(deepest, seg->MaxLengthOf(term));
  }
  const Memtable::Term* mem = MemtableTerm(term);
  if (mem != nullptr) deepest = std::max(deepest, mem->list.max_length);
  return deepest;
}

const TermStats* SegmentSetVersion::Stats(const std::string& term) const {
  const TermStats& sealed = state_->SealedStats(term);
  const Memtable::Term* mem = MemtableTerm(term);
  if (mem == nullptr) return sealed.rows == 0 ? nullptr : &sealed;
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = stats_cache_.try_emplace(term);
  if (inserted) {
    it->second = sealed;
    it->second.Merge(mem->stats, kMergedStatsBuckets);
  }
  return &it->second;
}

NodeId SegmentSetVersion::NodeAt(uint32_t level, uint32_t value) const {
  if (memtable_ != nullptr) {
    NodeId node = memtable_->NodeAt(level, value);
    if (node != kInvalidNode) return node;
  }
  return state_->NodeAt(level, value);
}

uint32_t SegmentSetVersion::max_level() const {
  uint32_t deepest = memtable_ != nullptr ? memtable_->max_level() : 0;
  return std::max(deepest, state_->max_level());
}

StatusOr<const JDeweyList*> SegmentSetVersion::Resolve(
    const std::string& term) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto cached = cache_.find(term);
  if (cached != cache_.end()) return &cached->second;

  size_t fanout = 0;
  StatusOr<const JDeweyList*> sealed = state_->MergedList(term, &fanout);
  if (!sealed.ok()) return sealed.status();
  const Memtable::Term* mem = MemtableTerm(term);
  if (mem != nullptr) ++fanout;
  XTOPK_COUNTER("core.join.segment_fanout").Add(fanout);
  if (*sealed == nullptr && mem == nullptr) {
    return static_cast<const JDeweyList*>(nullptr);
  }
  std::vector<const JDeweyList*> parts;
  if (*sealed != nullptr) parts.push_back(*sealed);
  if (mem != nullptr) parts.push_back(&mem->list);
  JDeweyList merged = MergeJDeweyParts(parts);

  // tf -> normalized tf·idf with the corpus-global df and normalizer.
  if (max_raw_ == 0.0) {
    max_raw_ = state_->MaxRaw(memtable_.get(), corpus_nodes_);
  }
  uint64_t df = mem != nullptr ? mem->corpus.df : state_->Figures(term).df;
  ScoreRawTfs(df, corpus_nodes_, max_raw_, &merged.scores);

  auto [it, inserted] = cache_.emplace(term, std::move(merged));
  (void)inserted;
  return &it->second;
}

namespace {

/// One input of MergeJDeweyParts, read in row order. `row` is the first
/// row not yet copied. Two sets of per-level run positions move forward
/// only: `cmp_at_` for reading a row's components while ordering heads,
/// `copy_at_` for copying runs, so each crosses every run once.
class MergeInput {
 public:
  explicit MergeInput(const JDeweyList* list)
      : list_(list),
        cmp_at_(list->columns.size(), 0),
        copy_at_(list->columns.size(), 0) {}

  uint32_t rows() const { return list_->num_rows(); }
  bool done() const { return row == rows(); }

  /// Whether row `r` of this input sorts before `other`'s next row.
  /// Neither input may be asked about an earlier row afterwards.
  bool RowBefore(uint32_t r, MergeInput& other) {
    uint32_t len = list_->lengths[r];
    uint32_t other_len = other.list_->lengths[other.row];
    uint32_t n = std::min(len, other_len);
    for (uint32_t level = 1; level <= n; ++level) {
      uint32_t a = Component(r, level);
      uint32_t b = other.Component(other.row, level);
      if (a != b) return a < b;
    }
    return len < other_len;
  }

  /// Whether this input's last row sorts before `other`'s next row: then
  /// everything left here precedes everything left there.
  bool LastBefore(MergeInput& other) {
    uint32_t len = list_->lengths[rows() - 1];
    uint32_t other_len = other.list_->lengths[other.row];
    uint32_t n = std::min(len, other_len);
    for (uint32_t level = 1; level <= n; ++level) {
      // The last row is in the last run of every column it reaches.
      uint32_t a = list_->columns[level - 1].runs().back().value;
      uint32_t b = other.Component(other.row, level);
      if (a != b) return a < b;
    }
    return len < other_len;
  }

  /// Copies rows [begin, end) to rows [out, out + end - begin) of
  /// `merged`, clipping the runs that cross either end; AppendRun
  /// coalesces runs that meet at a seam.
  void CopyRows(uint32_t begin, uint32_t end, uint32_t out,
                JDeweyList* merged) {
    std::copy(list_->lengths.begin() + begin, list_->lengths.begin() + end,
              merged->lengths.begin() + out);
    std::copy(list_->scores.begin() + begin, list_->scores.begin() + end,
              merged->scores.begin() + out);
    for (size_t l = 0; l < list_->columns.size(); ++l) {
      const std::vector<Run>& runs = list_->columns[l].runs();
      size_t& i = copy_at_[l];
      while (i < runs.size() && runs[i].end_row() <= begin) ++i;
      Column& column = merged->columns[l];
      for (size_t j = i; j < runs.size() && runs[j].first_row < end; ++j) {
        uint32_t first = std::max(runs[j].first_row, begin);
        uint32_t last = std::min(runs[j].end_row(), end);
        column.AppendRun(out + (first - begin), runs[j].value, last - first);
      }
      while (i < runs.size() && runs[i].end_row() <= end) ++i;
    }
  }

  uint32_t row = 0;

 private:
  /// S_r(level) for level <= lengths[r].
  uint32_t Component(uint32_t r, uint32_t level) {
    const std::vector<Run>& runs = list_->columns[level - 1].runs();
    size_t& i = cmp_at_[level - 1];
    while (runs[i].end_row() <= r) ++i;
    return runs[i].value;
  }

  const JDeweyList* list_;
  std::vector<size_t> cmp_at_;
  std::vector<size_t> copy_at_;
};

}  // namespace

JDeweyList MergeJDeweyParts(const std::vector<const JDeweyList*>& parts) {
  std::vector<MergeInput> inputs;
  inputs.reserve(parts.size());
  size_t total = 0;
  size_t levels = 0;
  for (const JDeweyList* part : parts) {
    if (part->num_rows() == 0) continue;
    inputs.emplace_back(part);
    total += part->num_rows();
    levels = std::max(levels, part->columns.size());
  }

  JDeweyList merged;
  merged.lengths.resize(total);
  merged.scores.resize(total);
  merged.columns.resize(levels);
  for (size_t l = 0; l < levels; ++l) {
    size_t runs = 0;
    for (const JDeweyList* part : parts) {
      if (l < part->columns.size()) runs += part->columns[l].run_count();
    }
    merged.columns[l].ReserveRuns(runs);
  }

  // Each step copies the longest stretch of the input with the least
  // next row that sorts before every other input's next row. Children
  // cover disjoint node sets, so sequences are pairwise distinct and the
  // order is strict.
  uint32_t out = 0;
  for (;;) {
    MergeInput* best = nullptr;
    MergeInput* next = nullptr;
    for (MergeInput& in : inputs) {
      if (in.done()) continue;
      if (best == nullptr || in.RowBefore(in.row, *best)) {
        next = best;
        best = &in;
      } else if (next == nullptr || in.RowBefore(in.row, *next)) {
        next = &in;
      }
    }
    if (best == nullptr) break;
    uint32_t begin = best->row;
    uint32_t end = best->rows();
    if (next != nullptr && !best->LastBefore(*next)) {
      end = begin + 1;
      while (end < best->rows() && best->RowBefore(end, *next)) ++end;
    }
    best->CopyRows(begin, end, out, &merged);
    out += end - begin;
    best->row = end;
  }

  for (uint16_t len : merged.lengths) {
    merged.max_length = std::max<uint32_t>(merged.max_length, len);
  }
  merged.columns.resize(merged.max_length);
  return merged;
}

StatusOr<JDeweyIndex> BuildCompactedSegment(
    const std::vector<std::shared_ptr<const SealedSegment>>& inputs,
    uint64_t* covered_nodes) {
  // Term universe and covered-node total from the manifests alone.
  uint64_t covered = 0;
  std::vector<std::string> all_terms;
  for (const auto& seg : inputs) {
    covered += seg->manifest().covered_nodes;
    for (const SegmentTermStats& t : seg->manifest().terms) {
      all_terms.push_back(t.term);
    }
  }
  std::sort(all_terms.begin(), all_terms.end());
  all_terms.erase(std::unique(all_terms.begin(), all_terms.end()),
                  all_terms.end());

  // Private sessions: serving versions keep their own, so the merge can
  // run on the maintenance thread while queries read the same segments.
  std::vector<std::unique_ptr<DiskJDeweyIndex>> sessions(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (!inputs[i]->is_memory()) sessions[i] = inputs[i]->env()->NewSession();
  }

  JDeweyIndex merged;
  auto* term_ids = IndexIoAccess::TermIds(&merged);
  auto* terms = IndexIoAccess::Terms(&merged);
  auto* lists = IndexIoAccess::Lists(&merged);
  for (const std::string& term : all_terms) {
    std::vector<const JDeweyList*> parts;
    for (size_t i = 0; i < inputs.size(); ++i) {
      const SealedSegment& seg = *inputs[i];
      if (seg.FindTerm(term) == nullptr) continue;
      if (seg.is_memory()) {
        const JDeweyList* list = seg.memory()->GetList(term);
        if (list != nullptr) parts.push_back(list);
      } else {
        StatusOr<const JDeweyList*> loaded =
            sessions[i]->LoadList(term, UINT32_MAX, /*need_scores=*/true,
                                  /*level_bounds=*/nullptr);
        if (!loaded.ok()) return loaded.status();
        if (*loaded != nullptr) parts.push_back(*loaded);
      }
    }
    term_ids->emplace(term, static_cast<uint32_t>(lists->size()));
    terms->push_back(term);
    lists->push_back(MergeJDeweyParts(parts));  // raw tf preserved
  }

  // Union of the children's (level, value) -> node mappings. Shared
  // ancestors appear in several segments with identical pairs; sort +
  // unique collapses them.
  auto* level_nodes = IndexIoAccess::LevelNodes(&merged);
  for (size_t i = 0; i < inputs.size(); ++i) {
    const SealedSegment& seg = *inputs[i];
    const auto& child = seg.is_memory()
                            ? IndexIoAccess::LevelNodes(*seg.memory())
                            : IndexIoAccess::LevelNodes(sessions[i]->view());
    if (level_nodes->size() < child.size()) level_nodes->resize(child.size());
    for (size_t l = 0; l < child.size(); ++l) {
      auto& dst = (*level_nodes)[l];
      dst.insert(dst.end(), child[l].begin(), child[l].end());
    }
  }
  for (auto& level : *level_nodes) {
    std::sort(level.begin(), level.end());
    level.erase(std::unique(level.begin(), level.end()), level.end());
  }
  *IndexIoAccess::MaxLevel(&merged) =
      static_cast<uint32_t>(level_nodes->size());

  if (covered_nodes != nullptr) *covered_nodes = covered;
  return merged;
}

}  // namespace xtopk
