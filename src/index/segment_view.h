#ifndef XTOPK_INDEX_SEGMENT_VIEW_H_
#define XTOPK_INDEX_SEGMENT_VIEW_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "index/disk_index.h"
#include "index/jdewey_index.h"
#include "index/reader.h"
#include "storage/segment_manifest.h"
#include "util/status.h"

namespace xtopk {

/// One immutable sealed segment (DESIGN.md §17): either an in-memory
/// raw-tf JDeweyIndex or an opened on-disk segment, plus its manifest.
/// Shared by every SegmentSetVersion that lists it; nothing here mutates
/// after construction except the superseded flag.
///
/// File lifetime is epoch-style: a compaction that replaces this segment
/// calls MarkSuperseded(), and the destructor — which runs when the LAST
/// version referencing the segment is dropped, i.e. when no in-flight
/// query can still read it — unlinks the segment file and its manifest.
/// Recovery handles the crash window between the drop record and the
/// unlink (manifest_log.h).
class SealedSegment {
 public:
  /// Seals `segment` (raw-tf scores, built by BuildSegmentIndex) as an
  /// in-memory immutable segment.
  static std::shared_ptr<const SealedSegment> FromMemory(
      JDeweyIndex segment, uint64_t covered_nodes);

  /// Opens a sealed on-disk segment: `path` must hold a DiskIndexWriter
  /// page file with scores, `path + ".manifest"` its SegmentManifest.
  /// `id` is the manifest-log segment id (0 = not log-managed).
  static StatusOr<std::shared_ptr<const SealedSegment>> FromDisk(
      const std::string& path, DiskIndexOptions options = {},
      uint64_t id = 0);

  ~SealedSegment();
  SealedSegment(const SealedSegment&) = delete;
  SealedSegment& operator=(const SealedSegment&) = delete;

  bool is_memory() const { return memory_ != nullptr; }
  const JDeweyIndex* memory() const { return memory_.get(); }
  const std::shared_ptr<DiskIndexEnv>& env() const { return env_; }
  /// The segment's manifest: a memory segment's own, or the one its disk
  /// environment parsed at Open (one copy, one parse).
  const SegmentManifest& manifest() const {
    return env_ != nullptr ? *env_->manifest() : manifest_;
  }
  /// The manifest's record of `term` (binary search: manifests are sorted
  /// by term), or nullptr when the segment does not hold it.
  const SegmentTermStats* FindTerm(const std::string& term) const;
  uint64_t id() const { return id_; }
  const std::string& path() const { return path_; }
  /// On-disk size of the segment file (0 for memory segments) — the
  /// tiered-compaction trigger input.
  uint64_t data_bytes() const { return data_bytes_; }

  /// Session-free per-segment lookups (memory index or DiskIndexEnv
  /// directory/node map — immutable, safe from any thread).
  uint32_t MaxLengthOf(const std::string& term) const;
  NodeId NodeAt(uint32_t level, uint32_t value) const;
  uint32_t max_level() const;

  /// Declares this segment replaced: its files are deleted when the last
  /// referencing version drops. Idempotent; const because supersession is
  /// lifecycle state, not index state.
  void MarkSuperseded() const {
    superseded_.store(true, std::memory_order_release);
  }
  bool superseded() const {
    return superseded_.load(std::memory_order_acquire);
  }

 private:
  SealedSegment() = default;

  std::unique_ptr<const JDeweyIndex> memory_;
  std::shared_ptr<DiskIndexEnv> env_;
  SegmentManifest manifest_;  ///< memory segments only
  uint64_t id_ = 0;
  std::string path_;
  uint64_t data_bytes_ = 0;
  mutable std::atomic<bool> superseded_{false};
};

/// An immutable snapshot of the whole segment set: the sealed list, the
/// memtable (shared — a later memtable rebuild cannot pull it out from
/// under a pinned query), and the corpus node count the idf term needs.
/// Queries pin one version for their entire lifetime, so the segment list
/// can never mutate mid-query; SegmentedIndex publishes a fresh version
/// for every mutation.
///
/// Merged-list / statistics caches live per version behind an internal
/// mutex (several in-flight queries may share one pin). Cached pointers
/// are node-stable and valid for the version's lifetime — the version is
/// immutable, so they are never invalidated.
class SegmentSetVersion {
 public:
  SegmentSetVersion(uint64_t version,
                    std::vector<std::shared_ptr<const SealedSegment>> sealed,
                    std::shared_ptr<const JDeweyIndex> memtable,
                    uint64_t corpus_nodes);
  ~SegmentSetVersion();
  SegmentSetVersion(const SegmentSetVersion&) = delete;
  SegmentSetVersion& operator=(const SegmentSetVersion&) = delete;

  uint64_t version() const { return version_; }
  const std::vector<std::shared_ptr<const SealedSegment>>& sealed() const {
    return sealed_;
  }
  const JDeweyIndex* memtable() const { return memtable_.get(); }
  const std::shared_ptr<const JDeweyIndex>& memtable_ref() const {
    return memtable_;
  }
  uint64_t corpus_nodes() const { return corpus_nodes_; }

  /// TermSource-shaped reads (segment.h documents the merge/normalization
  /// semantics; they are unchanged, only the ownership moved here).
  uint32_t Frequency(const std::string& term) const;
  uint32_t MaxLength(const std::string& term) const;
  StatusOr<const JDeweyList*> Resolve(const std::string& term) const;
  NodeId NodeAt(uint32_t level, uint32_t value) const;
  uint32_t max_level() const;
  const TermStats* Stats(const std::string& term) const;

 private:
  struct TermGlobal {
    uint64_t df = 0;
    uint32_t max_tf = 0;
  };

  /// Rebuilds globals_ / max_raw_ once per version. Caller holds mu_.
  void RefreshGlobalsLocked() const;
  /// All children's lists holding `term` (loads disk lists through this
  /// version's private sessions). Caller holds mu_.
  Status CollectPartsLocked(const std::string& term,
                            std::vector<const JDeweyList*>* parts) const;

  const uint64_t version_;
  const std::vector<std::shared_ptr<const SealedSegment>> sealed_;
  const std::shared_ptr<const JDeweyIndex> memtable_;
  const uint64_t corpus_nodes_;

  mutable std::mutex mu_;
  /// Lazily created disk sessions, parallel to sealed_ (sessions are
  /// single-threaded, so each version keeps its own under mu_).
  mutable std::vector<std::unique_ptr<DiskJDeweyIndex>> sessions_;
  mutable bool globals_ready_ = false;
  mutable std::unordered_map<std::string, TermGlobal> globals_;
  mutable double max_raw_ = 1.0;
  /// Merged + normalized lists; node-based map, so handed-out pointers
  /// stay stable.
  mutable std::unordered_map<std::string, JDeweyList> cache_;
  /// Merged planner statistics; rows == 0 memoizes "term absent".
  mutable std::unordered_map<std::string, TermStats> stats_cache_;
};

/// TermSource adapter over one pinned version: construct per query,
/// point JoinSearch/TopKSearch at it, drop it (and the pin) when the
/// query finishes. PlanWatermark is the version id, so cached plans keyed
/// through a reader stay correct across background publishes.
class SegmentSetReader : public TermSource {
 public:
  explicit SegmentSetReader(std::shared_ptr<const SegmentSetVersion> version)
      : version_(std::move(version)) {}

  const std::shared_ptr<const SegmentSetVersion>& version() const {
    return version_;
  }

  uint32_t Frequency(const std::string& term) const override {
    return version_->Frequency(term);
  }
  uint32_t MaxLength(const std::string& term) const override {
    return version_->MaxLength(term);
  }
  StatusOr<const JDeweyList*> Resolve(
      const std::string& term, uint32_t /*up_to_level*/,
      bool /*need_scores*/,
      const std::vector<ValueBounds>* /*level_bounds*/) override {
    return version_->Resolve(term);
  }
  NodeId NodeAt(uint32_t level, uint32_t value) const override {
    return version_->NodeAt(level, value);
  }
  uint32_t max_level() const override { return version_->max_level(); }
  const TermStats* Stats(const std::string& term) const override {
    return version_->Stats(term);
  }
  uint64_t PlanWatermark() const override { return version_->version(); }

 private:
  std::shared_ptr<const SegmentSetVersion> version_;
};

/// K-way merge of per-segment rows of one term by JDewey sequence into a
/// single list (raw scores copied through untouched). The parts must
/// cover disjoint node sets of one tree under one encoding.
JDeweyList MergeJDeweyParts(const std::vector<const JDeweyList*>& parts);

/// Merges `inputs` into one raw-tf JDeweyIndex (term lists k-way merged,
/// (level, value) -> node maps unioned) ready for DiskIndexWriter.
/// `covered_nodes` receives the inputs' covered-node total. Uses its own
/// disk sessions, so it is safe to run off-thread against segments that
/// live versions are serving.
StatusOr<JDeweyIndex> BuildCompactedSegment(
    const std::vector<std::shared_ptr<const SealedSegment>>& inputs,
    uint64_t* covered_nodes);

}  // namespace xtopk

#endif  // XTOPK_INDEX_SEGMENT_VIEW_H_
