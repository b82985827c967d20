#ifndef XTOPK_INDEX_SEGMENT_H_
#define XTOPK_INDEX_SEGMENT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "index/disk_index.h"
#include "index/jdewey_index.h"
#include "index/segment_view.h"
#include "util/status.h"

namespace xtopk {

/// N immutable sealed segments plus one memtable — the LSM shape
/// incremental indexing wants: inserts only ever touch the small
/// in-memory tail, sealed segments are written once and never rewritten
/// (until a compaction folds them into one).
///
/// Since the segment-lifecycle refactor (DESIGN.md §17) this class is a
/// thread-safe PUBLISHER of immutable SegmentSetVersion snapshots rather
/// than a mutable container: every mutation (AddMemorySegment /
/// AddDiskSegment / SetMemtable / SetCorpusNodes / Compact / Clear /
/// PublishCompaction) builds a fresh version and swaps it in atomically.
/// Queries call Pin() and read that snapshot for their whole lifetime —
/// epoch-style reclamation: a superseded segment's files are deleted when
/// the last version referencing it drops. The merge and normalization
/// semantics (bit-identical to a monolithic build) live in
/// SegmentSetVersion; a query reads a pin through a SegmentSetReader
/// (segment_view.h).
class SegmentedIndex {
 public:
  SegmentedIndex();

  /// The current immutable snapshot. Queries keep the returned pointer
  /// alive for their whole lifetime; publishes never disturb it.
  std::shared_ptr<const SegmentSetVersion> Pin() const;

  /// Seals `segment` (raw-tf scores, built by BuildSegmentIndex) as an
  /// in-memory immutable segment. `covered_nodes` is bookkeeping for the
  /// manifest written if this segment is later compacted to disk.
  void AddMemorySegment(JDeweyIndex segment, uint64_t covered_nodes = 0);

  /// Opens a sealed on-disk segment: `path` must hold a DiskIndexWriter
  /// page file with scores, `path + ".manifest"` its SegmentManifest.
  /// `id` is the manifest-log segment id (0 = not log-managed).
  Status AddDiskSegment(const std::string& path,
                        DiskIndexOptions options = {}, uint64_t id = 0);

  /// Attaches (or detaches, with nullptr) the memtable, the raw-tf index
  /// of the not-yet-sealed nodes, and publishes the corpus node count with
  /// it in one version. Pinned versions keep a replaced memtable alive on
  /// their own; the new version shares the sealed set's state (merged
  /// lists, term globals) with the old one.
  void SetMemtable(std::shared_ptr<const Memtable> memtable,
                   uint64_t corpus_nodes);

  /// Total nodes of the shared tree (the N of the idf term). Score
  /// normalization needs it; the owner refreshes it as the tree grows.
  /// No-op (no new version) when the value is unchanged, so per-query
  /// refreshes do not invalidate plan caches.
  void SetCorpusNodes(uint64_t corpus_nodes);

  /// Merges ALL sealed segments (memory and disk) into one on-disk
  /// segment at `path` (+ ".manifest") and replaces them with it. The
  /// memtable is untouched; query results are unchanged. Superseded disk
  /// segments' files are deleted once the last pinned version drops them
  /// (segments at `path` itself are kept — they ARE the output). No-op
  /// when nothing is sealed.
  Status Compact(const std::string& path, DiskIndexOptions options = {});

  /// Atomically replaces `inputs` (matched by identity against the
  /// current head) with `output` — the background compactor's publish
  /// step. Returns false without publishing when any input is no longer
  /// in the head (a Clear/rebuild won the race); the caller then discards
  /// `output`. Does NOT mark the inputs superseded — the caller owns file
  /// GC (it must log drops first for crash safety).
  bool PublishCompaction(
      const std::vector<std::shared_ptr<const SealedSegment>>& inputs,
      std::shared_ptr<const SealedSegment> output);

  /// Drops every sealed segment and the memtable (full-rebuild path).
  /// Files are not deleted: pre-refactor behavior, and the durable engine
  /// logs drops itself before superseding.
  void Clear();

  size_t sealed_count() const { return Pin()->sealed().size(); }
  /// The head version's id: any seal / ingest / compact publish bumps it,
  /// so plans and results cached on it never survive an index mutation.
  uint64_t version() const { return Pin()->version(); }

 private:
  /// Installs a new head built from `state` + `memtable` +
  /// `corpus_nodes` and refreshes the index.segments gauge. Caller holds
  /// mu_.
  void PublishLocked(std::shared_ptr<const SealedSetState> state,
                     std::shared_ptr<const Memtable> memtable,
                     uint64_t corpus_nodes);
  /// Publishes a changed sealed list (with a new sealed-set state) under
  /// the head's memtable and node count. Caller holds mu_.
  void PublishSealedLocked(
      std::vector<std::shared_ptr<const SealedSegment>> sealed);

  mutable std::mutex mu_;
  std::shared_ptr<const SegmentSetVersion> head_;
  uint64_t next_version_ = 1;
};

}  // namespace xtopk

#endif  // XTOPK_INDEX_SEGMENT_H_
