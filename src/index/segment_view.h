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

class SealedSetState;

/// A term's document frequency (rows) and largest raw tf.
struct TermFigures {
  uint64_t df = 0;
  uint32_t max_tf = 0;
};

/// The memtable (DESIGN.md §10): the raw-tf lists of the nodes above the
/// sealed watermark. Immutable; a refresh builds the next one as
/// predecessor ⊕ delta, where the delta indexes only the nodes added since
/// the predecessor. A term the delta does not touch keeps the
/// predecessor's entry by pointer, so neither building nor releasing a
/// memtable visits the rows of terms its new documents lack. Lists carry
/// no NodeIds: rows map to nodes through NodeAt.
class Memtable {
 public:
  /// One term: its corpus-wide figures, raw-tf list and planner
  /// statistics, all fixed when the entry is built.
  struct Term {
    /// The sealed set's figures, read when the term enters the memtable
    /// (compaction keeps them; a seal or rebuild starts a new memtable),
    /// plus the memtable's. First: the frontier pass reads only this,
    /// beside the entry's refcount.
    TermFigures corpus;
    std::string term;
    JDeweyList list;
    TermStats stats;
  };

  /// `predecessor` (null: empty) ⊕ `delta`. `delta` must be a
  /// BuildSegmentIndex over nodes disjoint from the predecessor's, under
  /// the encoding the predecessor was built with. A term in both is merged
  /// (MergeJDeweyParts) and its statistics recomputed with `stats_buckets`,
  /// so the result equals one BuildSegmentIndex over both node sets. New
  /// entries read their sealed figures from `sealed`.
  static std::shared_ptr<const Memtable> Extend(
      const std::shared_ptr<const Memtable>& predecessor, JDeweyIndex delta,
      size_t stats_buckets, const SealedSetState& sealed);

  /// `term`'s entry (binary search), or nullptr when no row holds it.
  const Term* Find(const std::string& term) const;
  /// Every entry, sorted by term.
  const std::vector<std::shared_ptr<const Term>>& terms() const {
    return terms_;
  }
  /// Node with JDewey number `value` at `level` among the indexed nodes
  /// and their ancestors; kInvalidNode if none.
  NodeId NodeAt(uint32_t level, uint32_t value) const;
  uint32_t max_level() const {
    return static_cast<uint32_t>(level_nodes_.size());
  }
  /// The Pareto frontier of the entries' corpus figures, both ascending:
  /// each entry has a point of no smaller max tf and no larger df.
  const std::vector<TermFigures>& frontier() const { return frontier_; }

 private:
  std::vector<std::shared_ptr<const Term>> terms_;
  std::vector<TermFigures> frontier_;
  /// Per level (1-based), (value, node) pairs sorted by value.
  std::vector<std::vector<std::pair<uint32_t, NodeId>>> level_nodes_;
};

/// What every version over one sealed list shares (DESIGN.md §10, §17).
/// SegmentedIndex creates one per sealed list — a seal, compaction,
/// Clear or AddMemorySegment starts a new one — and hands it on to every
/// version that only swaps the memtable or the corpus node count, so the
/// work below is done once per sealed set instead of once per version.
/// It dies with the last version over its sealed set.
///
/// Everything is filled lazily behind one internal mutex: the sealed
/// per-term df / max tf (read from the sorted manifests), the sealed
/// max-raw frontier, each queried term's merged sealed list and its
/// sealed planner statistics. Handed-out pointers are node-stable and
/// live as long as the state.
class SealedSetState {
 public:
  explicit SealedSetState(
      std::vector<std::shared_ptr<const SealedSegment>> sealed);
  SealedSetState(const SealedSetState&) = delete;
  SealedSetState& operator=(const SealedSetState&) = delete;

  const std::vector<std::shared_ptr<const SealedSegment>>& sealed() const {
    return sealed_;
  }

  /// `term`'s df (Σ rows) and max tf over the sealed segments; zeros
  /// when none holds it.
  TermFigures Figures(const std::string& term) const;

  /// The corpus-wide normalizer of a version over this sealed set plus
  /// `memtable`: the max of RawLocalScore(max_tf, df, corpus_nodes) over
  /// every term, 1.0 when that is not positive. Exact (the same double a
  /// scan of every term gives) from the memtable's frontier plus, per
  /// distinct sealed max tf, the least-df term the memtable does not hold.
  /// Counter `index.max_raw_terms_scanned`: the entries of both visited.
  double MaxRaw(const Memtable* memtable, uint64_t corpus_nodes) const;

  /// `term`'s sealed parts merged into one list (raw tf, no NodeIds), or
  /// nullptr when no sealed segment holds it. Merged once per sealed set
  /// (counter `index.sealed_list_merges`). `fanout` receives the number of
  /// sealed segments holding the term.
  StatusOr<const JDeweyList*> MergedList(const std::string& term,
                                         size_t* fanout) const;

  /// The sealed half of `term`'s planner statistics (segments merged in
  /// order); rows == 0 when no sealed segment holds it.
  const TermStats& SealedStats(const std::string& term) const;

  NodeId NodeAt(uint32_t level, uint32_t value) const;
  uint32_t max_level() const;

 private:
  /// One term of the sealed set: summed rows, max tf, and the manifest
  /// string it was read from (alive as long as sealed_).
  struct TermEntry {
    const std::string* term = nullptr;
    uint64_t df = 0;
    uint32_t max_tf = 0;
  };

  /// Fills terms_ and frontier_ on first use. Caller holds mu_.
  void LoadTermsLocked() const;
  const TermEntry* FindLocked(const std::string& term) const;

  const std::vector<std::shared_ptr<const SealedSegment>> sealed_;

  mutable std::mutex mu_;
  mutable bool terms_loaded_ = false;
  /// Every sealed term, sorted by term (a k-way merge of the manifests).
  mutable std::vector<TermEntry> terms_;
  /// Per distinct max tf, ascending: the terms_ indices of that max tf in
  /// ascending df order.
  mutable std::vector<std::pair<uint32_t, std::vector<uint32_t>>> frontier_;
  struct MergedTerm {
    JDeweyList list;
    size_t fanout = 0;
  };
  /// Merged sealed lists; node-based map, so handed-out pointers stay
  /// stable.
  mutable std::unordered_map<std::string, MergedTerm> lists_;
  mutable std::unordered_map<std::string, TermStats> stats_;
};

/// An immutable snapshot of the whole segment set: the sealed set's
/// shared state, the memtable (shared — a later refresh cannot pull it
/// out from under a pinned query, and successive memtables share the
/// entries of terms a refresh did not touch), and the corpus node count
/// the idf term needs. Queries pin one version for their entire lifetime, so
/// the segment list can never mutate mid-query; SegmentedIndex publishes
/// a fresh version for every mutation.
///
/// A version owns only what depends on its memtable or its node count:
/// the normalizer and each resolved term's list (the sealed set's merged
/// list ⊕ the memtable's, rescored). Those caches live behind an
/// internal mutex (several in-flight queries may share one pin); cached
/// pointers are node-stable and valid for the version's lifetime.
class SegmentSetVersion {
 public:
  SegmentSetVersion(uint64_t version,
                    std::shared_ptr<const SealedSetState> sealed,
                    std::shared_ptr<const Memtable> memtable,
                    uint64_t corpus_nodes);
  ~SegmentSetVersion();
  SegmentSetVersion(const SegmentSetVersion&) = delete;
  SegmentSetVersion& operator=(const SegmentSetVersion&) = delete;

  uint64_t version() const { return version_; }
  const std::vector<std::shared_ptr<const SealedSegment>>& sealed() const {
    return state_->sealed();
  }
  const std::shared_ptr<const SealedSetState>& state() const {
    return state_;
  }
  const Memtable* memtable() const { return memtable_.get(); }
  const std::shared_ptr<const Memtable>& memtable_ref() const {
    return memtable_;
  }
  uint64_t corpus_nodes() const { return corpus_nodes_; }

  /// TermSource-shaped reads (segment.h documents the merge/normalization
  /// semantics).
  uint32_t Frequency(const std::string& term) const;
  uint32_t MaxLength(const std::string& term) const;
  StatusOr<const JDeweyList*> Resolve(const std::string& term) const;
  NodeId NodeAt(uint32_t level, uint32_t value) const;
  uint32_t max_level() const;
  const TermStats* Stats(const std::string& term) const;

 private:
  /// The memtable's entry of `term`, or nullptr.
  const Memtable::Term* MemtableTerm(const std::string& term) const;

  const uint64_t version_;
  const std::shared_ptr<const SealedSetState> state_;
  const std::shared_ptr<const Memtable> memtable_;
  const uint64_t corpus_nodes_;

  mutable std::mutex mu_;
  mutable double max_raw_ = 0.0;  ///< 0 until first needed
  /// Merged + normalized lists; node-based map, so handed-out pointers
  /// stay stable.
  mutable std::unordered_map<std::string, JDeweyList> cache_;
  /// Planner statistics of terms the memtable holds (the others are the
  /// sealed set's own).
  mutable std::unordered_map<std::string, TermStats> stats_cache_;
};

/// TermSource adapter over one pinned version: construct per query,
/// point JoinSearch/TopKSearch at it, drop it (and the pin) when the
/// query finishes. PlanWatermark is the version id, so cached plans keyed
/// through a reader stay correct across background publishes. Resolve
/// ignores up_to_level and level_bounds: a merged list is always full,
/// which the TermSource contract allows as a superset.
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
/// single list (raw scores copied through untouched, NodeIds left out:
/// the segment path maps rows to nodes through NodeAt). The parts must
/// cover disjoint node sets of one tree under one encoding. Streams over
/// per-level run cursors: a stretch of one part that sorts before every
/// other part's next row is copied as runs, which coalesce at the seams,
/// so parts that do not overlap in key range (every seal covers later
/// documents) cost one pass over their runs.
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
