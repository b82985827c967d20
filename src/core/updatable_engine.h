#ifndef XTOPK_CORE_UPDATABLE_ENGINE_H_
#define XTOPK_CORE_UPDATABLE_ENGINE_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/compaction.h"
#include "core/engine.h"
#include "index/segment.h"
#include "storage/manifest_log.h"
#include "xml/jdewey.h"
#include "xml/xml_tree.h"

namespace xtopk {

/// Durable-mode configuration (OpenDurable). The data directory holds the
/// manifest log, the sealed segment files (`seg-<id>` + `.manifest`), and
/// the JDewey encoding snapshot of the last seal (`enc-<id>`).
struct DurableOptions {
  std::string data_dir;
  /// Run tiered compaction on the background maintenance thread. The
  /// XTOPK_DISABLE_BG_COMPACT environment variable overrides this to off.
  bool auto_compact = true;
  CompactionOptions compaction;
  /// Options for opening sealed segment files.
  DiskIndexOptions disk;
};

/// A genuinely incremental engine over a mutable document. Node insertions
/// maintain the JDewey encoding in place (§III-A: reserved gaps, partial
/// re-encoding), and the inverted lists are segmented LSM-style
/// (SegmentedIndex): nodes below a watermark live in immutable sealed
/// segments, nodes at or above it in a small memtable that a query's lazy
/// refresh extends by the nodes added since the last refresh (DESIGN.md
/// §10). An append-only workload therefore NEVER rebuilds the full index,
/// indexes each appended node once until the next seal, and `rebuilds()`
/// stays 0.
///
/// A full rebuild happens only when sealed data goes stale:
///  - a reserved-range overflow re-encodes a subtree rooted BELOW the
///    watermark (its sealed JDewey numbers are now wrong), or
///  - text is appended to a node below the watermark (its sealed term
///    rows are now wrong).
/// Both are detected per mutation and deferred to the next query.
///
/// Queries serve from pinned SegmentSetVersion snapshots (DESIGN.md §17),
/// so the DURABLE mode's background compactor can publish new versions
/// mid-query without disturbing in-flight reads. Mutations and queries
/// still follow the single-writer contract: one thread drives
/// AddElement/AppendText/Search; only the maintenance work (SealMemtable
/// and compaction rounds) is internally synchronized against the
/// background thread.
///
/// The plain constructor keeps the base segment and the memtable in
/// memory; SealMemtable and Compact need DURABLE MODE (OpenDurable): seals
/// write `seg-<id>` files named by a crash-safe manifest log; reopening
/// the same directory recovers the sealed set (deleting orphans from torn
/// operations) and resumes the maintained encoding from the last seal's
/// snapshot. A background CompactionScheduler runs tiered compaction;
/// every transition is logged write-ahead, so a crash at any point reopens
/// to either the pre- or the post-operation set, never a mix.
class UpdatableEngine {
 public:
  explicit UpdatableEngine(XmlTree initial, EngineOptions options = {});
  ~UpdatableEngine();

  /// Opens a durable engine over `durable.data_dir`: replays the manifest
  /// log, reopens the live sealed segments, resumes the JDewey encoding
  /// from the last seal's snapshot and extends it over any tree nodes
  /// beyond the recovered watermark (they become the memtable). A fresh
  /// directory seals `initial` as the durable base segment. A damaged
  /// encoding snapshot or unreadable live segment degrades safely: the
  /// stale set is dropped (logged) and the whole tree is re-sealed.
  static StatusOr<std::unique_ptr<UpdatableEngine>> OpenDurable(
      XmlTree initial, EngineOptions options, DurableOptions durable);

  /// Adds an element under `parent`, with optional direct text. Returns
  /// the new node. O(1) amortized encoding maintenance; the new node goes
  /// to the memtable.
  NodeId AddElement(NodeId parent, const std::string& tag,
                    const std::string& text = "");

  /// Appends text to an existing element. Appending an empty string is a
  /// no-op (nothing to index — the index must NOT go dirty). Text on a
  /// memtable node re-indexes the memtable at the next query; text on a
  /// sealed node forces a full rebuild there.
  void AppendText(NodeId node, const std::string& text);

  /// Grafts a copy of `doc` under the root as one <doc name=...> wrapper
  /// subtree (the MultiDocCorpus shape), maintaining the encoding node by
  /// node. Returns the wrapper node. The whole document lands in the
  /// memtable; SealMemtable turns accumulated documents into an immutable
  /// segment.
  NodeId AddDocument(const std::string& name, const XmlTree& doc);

  /// Runs one query through the shared query path (RunQuery), after
  /// folding pending mutations in (memtable refresh / rebuild). The query
  /// pins the current segment version for its whole lifetime — background
  /// publishes cannot change its answer. On deadline expiry the hits hold
  /// the proven partial answer and the status is kDeadlineExceeded. The
  /// status and accounting are also kept as last_status() /
  /// last_accounting().
  BatchQueryResult Run(const BatchQuery& query);

  /// Run without a deadline, returning only the hits.
  std::vector<QueryHit> Search(const std::vector<std::string>& keywords,
                               Semantics semantics = Semantics::kElca);
  std::vector<QueryHit> SearchTopK(const std::vector<std::string>& keywords,
                                   size_t k,
                                   Semantics semantics = Semantics::kElca);

  /// DURABLE: seals the memtable as the next log-managed segment — files
  /// first, then the kSeal record (the commit point), so a crash at any
  /// byte leaves either the old or the new set. Wakes the compactor.
  /// Queries before and after answer identically. Fails on an empty
  /// memtable.
  Status SealMemtable();

  /// DURABLE: synchronously merges all log-managed disk segments into one
  /// (the same crash-safe kCompactBegin/kCompactCommit/kDrop protocol the
  /// background rounds use). Ok and a no-op with fewer than two; the
  /// failure when the merge, the write, a log append or the publish
  /// failed (answers are unchanged either way).
  Status Compact();

  const XmlTree& tree() const { return tree_; }

  /// Numbers changed by encoding maintenance since construction (1 per
  /// plain insert; subtree size when a reserved range forced a partial
  /// re-encode).
  uint64_t encoding_updates() const { return encoding_updates_; }
  /// FULL index rebuilds (sealed data went stale). 0 on append-only
  /// workloads — the point of the segmented design.
  uint64_t rebuilds() const { return rebuilds_; }
  /// Lazy memtable refreshes; not counted as rebuilds.
  uint64_t memtable_refreshes() const { return memtable_refreshes_; }
  bool dirty() const { return memtable_dirty_ || needs_full_rebuild_; }

  /// Sealed segments currently serving queries.
  size_t segment_count() const { return segments_.sealed_count(); }
  /// Documents (AddDocument) accumulated in the memtable since the last
  /// seal / rebuild.
  size_t memtable_docs() const { return memtable_docs_; }
  /// Nodes below this id are covered by sealed segments.
  NodeId watermark() const { return watermark_; }
  /// The memtable of the last refresh (null when it indexed nothing).
  /// After a refresh it covers [watermark(), tree().node_count()).
  const std::shared_ptr<const Memtable>& memtable() const { return memtable_; }
  /// The maintained JDewey encoding every segment is numbered by.
  const JDeweyEncoding& encoding() const { return encoding_; }
  /// The published segment-set version, as the next query pins it.
  std::shared_ptr<const SegmentSetVersion> Pin() const {
    return segments_.Pin();
  }

  /// Whether this engine was opened by OpenDurable.
  bool durable() const { return log_ != nullptr; }
  /// The background scheduler (durable mode; nullptr otherwise). Tests
  /// drive RunOnce / inspect rounds() through it.
  CompactionScheduler* scheduler() { return scheduler_.get(); }

  /// Invariant check (tests): the maintained encoding still satisfies both
  /// JDewey requirements.
  Status ValidateEncoding() const { return encoding_.Validate(tree_); }

  /// The join-plan cache (tests assert invalidation-on-seal through it).
  PlanCache& plan_cache() { return plan_cache_; }

  /// Resource bill of the most recent query (the Search APIs return bare
  /// hit vectors, so the accounting rides on the side).
  const obs::ResourceAccounting& last_accounting() const {
    return last_accounting_;
  }

  /// Status of the most recent query (kDeadlineExceeded when its deadline
  /// expired mid-query; rides on the side like last_accounting()).
  const Status& last_status() const { return last_status_; }

  /// The segmented index's version after folding in any pending mutations
  /// (EnsureFresh runs first, so an ingest that merely dirtied the
  /// memtable still bumps the number). Result caches key on this: a seal,
  /// compact, or ingest moves the watermark and silently invalidates —
  /// including background compaction publishes.
  uint64_t plan_watermark();

  /// Same analyzer as indexing (multi-token inputs expand, duplicates
  /// drop). Public for cache-key normalization, like Engine::Normalize.
  std::vector<std::string> Normalize(
      const std::vector<std::string>& keywords) const;

 private:
  struct RecoveryTag {};
  /// The OpenDurable constructor: takes the tree but defers encoding
  /// assignment and base sealing to the recovery logic.
  UpdatableEngine(RecoveryTag, XmlTree initial, EngineOptions options);

  void EnsureFresh();
  void FullRebuild();
  /// DURABLE full rebuild: seals the whole tree as a new log-managed
  /// segment and atomically replaces the stale set (compact-record
  /// protocol, so recovery sees pre- or post-rebuild, never both). Falls
  /// back to the in-memory FullRebuild when disk writes fail — queries
  /// stay correct; the log keeps the old set as the recovery state.
  void DurableFullRebuild();
  void RefreshMemtable();
  /// Seals nodes [watermark_, node_count) as one in-memory segment (the
  /// plain constructor's base, and FullRebuild's from watermark 0).
  void SealInMemory();
  /// Nodes below `count` are now sealed: moves the watermark there and
  /// empties the memtable.
  void SealedUpTo(size_t count);
  /// DURABLE seal of [watermark_, node_count): segment + manifest +
  /// encoding snapshot files first, then the kSeal record. Caller holds
  /// maintenance_mu_.
  Status SealDurableLocked();
  /// One compaction round over the log-managed disk segments: pick
  /// (tiered, or everything when `merge_all`), kCompactBegin, merge +
  /// write off-lock, publish + kCompactCommit, kDrop + supersede the
  /// inputs. `published` reports whether a merge was published; the
  /// status is Ok when the round completed or found nothing to merge.
  /// Runs on the maintenance thread or a caller thread — never two at
  /// once (maintenance_mu_ serializes the log/publish sections).
  Status CompactRound(bool merge_all, bool* published);
  /// Logs a kDrop for the abandoned output id and deletes its files
  /// (failed/raced compaction cleanup).
  void AbandonOutput(uint64_t id, const std::string& path);

  XmlTree tree_;
  EngineOptions options_;
  JDeweyEncoding encoding_;
  SegmentedIndex segments_;
  /// Join-plan cache over the segmented index. Entries carry the index
  /// version as their watermark, so a seal / compact / ingest silently
  /// invalidates them — no explicit hook needed.
  PlanCache plan_cache_;
  /// Indexes [watermark_, memtable_upto_). Shared so pinned versions keep
  /// a replaced memtable alive until the last in-flight query drops it.
  std::shared_ptr<const Memtable> memtable_;
  NodeId watermark_ = 0;
  /// Nodes below this id are indexed (sealed or in memtable_); a refresh
  /// indexes [memtable_upto_, node_count) into a delta. A mutation that
  /// makes memtable rows stale moves it back to watermark_, so the next
  /// refresh re-indexes the whole memtable.
  NodeId memtable_upto_ = 0;
  bool memtable_dirty_ = false;
  bool needs_full_rebuild_ = false;
  uint64_t encoding_updates_ = 0;
  uint64_t rebuilds_ = 0;
  uint64_t memtable_refreshes_ = 0;
  size_t memtable_docs_ = 0;
  obs::ResourceAccounting last_accounting_;
  Status last_status_ = Status::Ok();

  // Durable mode (all null/empty in the plain constructor).
  DurableOptions durable_options_;
  std::unique_ptr<ManifestLog> log_;
  std::unique_ptr<CompactionScheduler> scheduler_;
  /// Serializes maintenance transitions (seal, compaction rounds, durable
  /// rebuild) between the owner thread and the background thread. Lock
  /// order: maintenance_mu_ before any SegmentedIndex-internal lock;
  /// queries take neither.
  std::mutex maintenance_mu_;
  uint64_t next_segment_id_ = 1;
  /// The id whose `enc-<id>` snapshot is authoritative (0 = none yet).
  uint64_t enc_id_ = 0;
};

}  // namespace xtopk

#endif  // XTOPK_CORE_UPDATABLE_ENGINE_H_
