#include "index/segment_view.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
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

SegmentSetVersion::SegmentSetVersion(
    uint64_t version, std::vector<std::shared_ptr<const SealedSegment>> sealed,
    std::shared_ptr<const JDeweyIndex> memtable, uint64_t corpus_nodes)
    : version_(version),
      sealed_(std::move(sealed)),
      memtable_(std::move(memtable)),
      corpus_nodes_(corpus_nodes) {
  XTOPK_GAUGE("index.segment_versions_live").Add(1);
}

SegmentSetVersion::~SegmentSetVersion() {
  XTOPK_GAUGE("index.segment_versions_live").Add(-1);
}

uint32_t SegmentSetVersion::Frequency(const std::string& term) const {
  uint64_t total = 0;
  for (const auto& seg : sealed_) {
    const SegmentTermStats* t = seg->FindTerm(term);
    if (t != nullptr) total += t->rows;
  }
  if (memtable_ != nullptr) total += memtable_->Frequency(term);
  return static_cast<uint32_t>(total);
}

uint32_t SegmentSetVersion::MaxLength(const std::string& term) const {
  uint32_t deepest = 0;
  for (const auto& seg : sealed_) {
    if (seg->FindTerm(term) == nullptr) continue;
    deepest = std::max(deepest, seg->MaxLengthOf(term));
  }
  if (memtable_ != nullptr) {
    const JDeweyList* list = memtable_->GetList(term);
    if (list != nullptr) deepest = std::max(deepest, list->max_length);
  }
  return deepest;
}

const TermStats* SegmentSetVersion::Stats(const std::string& term) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto cached = stats_cache_.find(term);
  if (cached != stats_cache_.end()) {
    return cached->second.rows == 0 ? nullptr : &cached->second;
  }

  TermStats merged;
  for (const auto& seg : sealed_) {
    const SegmentTermStats* t = seg->FindTerm(term);
    if (t == nullptr || t->rows == 0) continue;
    merged.Merge(*t, kMergedStatsBuckets);
  }
  if (memtable_ != nullptr && memtable_->Frequency(term) > 0) {
    const TermStats* mt = memtable_->StatsOf(term);
    if (mt != nullptr) {
      merged.Merge(*mt, kMergedStatsBuckets);
    } else {
      TermStats part;
      part.rows = memtable_->Frequency(term);
      merged.Merge(part, kMergedStatsBuckets);
    }
  }
  auto [it, inserted] = stats_cache_.emplace(term, std::move(merged));
  (void)inserted;
  return it->second.rows == 0 ? nullptr : &it->second;
}

NodeId SegmentSetVersion::NodeAt(uint32_t level, uint32_t value) const {
  if (memtable_ != nullptr) {
    NodeId node = memtable_->NodeAt(level, value);
    if (node != kInvalidNode) return node;
  }
  for (const auto& seg : sealed_) {
    NodeId node = seg->NodeAt(level, value);
    if (node != kInvalidNode) return node;
  }
  return kInvalidNode;
}

uint32_t SegmentSetVersion::max_level() const {
  uint32_t deepest = memtable_ != nullptr ? memtable_->max_level() : 0;
  for (const auto& seg : sealed_) {
    deepest = std::max(deepest, seg->max_level());
  }
  return deepest;
}

void SegmentSetVersion::RefreshGlobalsLocked() const {
  if (globals_ready_) return;
  globals_.clear();
  for (const auto& seg : sealed_) {
    for (const SegmentTermStats& t : seg->manifest().terms) {
      TermGlobal& g = globals_[t.term];
      g.df += t.rows;
      g.max_tf = std::max(g.max_tf, t.max_tf);
    }
  }
  if (memtable_ != nullptr) {
    const auto& terms = memtable_->terms();
    const auto& lists = memtable_->lists();
    for (size_t t = 0; t < terms.size(); ++t) {
      TermGlobal& g = globals_[terms[t]];
      g.df += lists[t].num_rows();
      for (float tf : lists[t].scores) {
        g.max_tf = std::max(g.max_tf, static_cast<uint32_t>(tf));
      }
    }
  }
  // The corpus-wide normalizer: RawLocalScore is monotone in tf for a
  // fixed df, so each term's max raw score is attained at its max tf and
  // the global max is the max over terms — exactly the max a monolithic
  // build takes over every occurrence.
  max_raw_ = 0.0;
  for (const auto& [term, g] : globals_) {
    max_raw_ =
        std::max(max_raw_, RawLocalScore(g.max_tf, g.df, corpus_nodes_));
  }
  if (max_raw_ <= 0.0) max_raw_ = 1.0;
  globals_ready_ = true;
}

Status SegmentSetVersion::CollectPartsLocked(
    const std::string& term, std::vector<const JDeweyList*>* parts) const {
  if (sessions_.size() < sealed_.size()) sessions_.resize(sealed_.size());
  size_t fanout = 0;
  for (size_t i = 0; i < sealed_.size(); ++i) {
    const SealedSegment& seg = *sealed_[i];
    if (seg.FindTerm(term) == nullptr) continue;
    ++fanout;
    if (seg.is_memory()) {
      const JDeweyList* list = seg.memory()->GetList(term);
      if (list != nullptr) parts->push_back(list);
    } else {
      if (sessions_[i] == nullptr) sessions_[i] = seg.env()->NewSession();
      StatusOr<const JDeweyList*> loaded =
          sessions_[i]->LoadList(term, UINT32_MAX, /*need_scores=*/true,
                                 /*level_bounds=*/nullptr);
      if (!loaded.ok()) return loaded.status();
      if (*loaded != nullptr) parts->push_back(*loaded);
    }
  }
  if (memtable_ != nullptr) {
    const JDeweyList* list = memtable_->GetList(term);
    if (list != nullptr) {
      parts->push_back(list);
      ++fanout;
    }
  }
  XTOPK_COUNTER("core.join.segment_fanout").Add(fanout);
  return Status::Ok();
}

StatusOr<const JDeweyList*> SegmentSetVersion::Resolve(
    const std::string& term) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto cached = cache_.find(term);
  if (cached != cache_.end()) return &cached->second;
  if (Frequency(term) == 0) return static_cast<const JDeweyList*>(nullptr);

  RefreshGlobalsLocked();
  std::vector<const JDeweyList*> parts;
  Status s = CollectPartsLocked(term, &parts);
  if (!s.ok()) return s;
  JDeweyList merged = MergeJDeweyParts(parts);

  // tf -> normalized tf·idf, with the corpus-global df and normalizer.
  const TermGlobal& global = globals_.at(term);
  for (uint32_t row = 0; row < merged.num_rows(); ++row) {
    uint32_t tf = static_cast<uint32_t>(merged.scores[row]);
    double raw = RawLocalScore(tf, global.df, corpus_nodes_);
    merged.scores[row] = static_cast<float>(raw / max_raw_);
  }
  // Rows that came from disk segments carry no NodeId; the (level, value)
  // mapping recovers them.
  for (uint32_t row = 0; row < merged.num_rows(); ++row) {
    if (merged.nodes[row] != kInvalidNode) continue;
    JDeweySeq seq = merged.SequenceOf(row);
    merged.nodes[row] = NodeAt(merged.lengths[row], seq.back());
  }

  auto [it, inserted] = cache_.emplace(term, std::move(merged));
  (void)inserted;
  return &it->second;
}

JDeweyList MergeJDeweyParts(const std::vector<const JDeweyList*>& parts) {
  struct RowRef {
    const JDeweyList* list = nullptr;
    uint32_t row = 0;
    JDeweySeq seq;
  };
  size_t total = 0;
  for (const JDeweyList* part : parts) total += part->num_rows();
  std::vector<RowRef> rows;
  rows.reserve(total);
  for (const JDeweyList* part : parts) {
    for (uint32_t r = 0; r < part->num_rows(); ++r) {
      rows.push_back(RowRef{part, r, part->SequenceOf(r)});
    }
  }
  // Children cover disjoint node sets, so sequences are pairwise distinct
  // and the comparison is a strict weak order.
  std::sort(rows.begin(), rows.end(), [](const RowRef& a, const RowRef& b) {
    return CompareJDewey(a.seq, b.seq) < 0;
  });

  JDeweyList merged;
  merged.lengths.resize(total);
  merged.scores.resize(total);
  merged.nodes.resize(total, kInvalidNode);
  for (uint32_t i = 0; i < total; ++i) {
    const RowRef& ref = rows[i];
    uint16_t len = ref.list->lengths[ref.row];
    merged.lengths[i] = len;
    merged.scores[i] = ref.list->scores[ref.row];
    if (ref.row < ref.list->nodes.size()) {
      merged.nodes[i] = ref.list->nodes[ref.row];  // disk lists leave these
    }
    if (len > merged.max_length) merged.max_length = len;
    if (merged.columns.size() < len) merged.columns.resize(len);
    for (uint16_t level = 1; level <= len; ++level) {
      merged.columns[level - 1].Append(i, ref.seq[level - 1]);
    }
  }
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
