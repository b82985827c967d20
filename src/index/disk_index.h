#ifndef XTOPK_INDEX_DISK_INDEX_H_
#define XTOPK_INDEX_DISK_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/join_search.h"
#include "core/topk_search.h"
#include "core/search_result.h"
#include "index/dag.h"
#include "index/jdewey_index.h"
#include "index/reader.h"
#include "storage/buffer_pool.h"
#include "storage/compression.h"
#include "storage/decoded_cache.h"
#include "storage/dictionary.h"
#include "storage/page_file.h"
#include "storage/segment_manifest.h"
#include "util/status.h"

namespace xtopk {

class DiskJDeweyIndex;

/// A byte extent within a PageFile (blobs may span pages).
struct BlobExtent {
  PageId start_page = 0;
  uint32_t start_offset = 0;
  uint64_t length = 0;
};

/// Per-file flags of the on-disk image. Each is a win that depends on the
/// data, so the image records it in its sidecar flags byte.
struct DiskImageOptions {
  /// Persist per-row local scores (the top-K rebuild needs them; Table I's
  /// join-based configuration writes without).
  bool include_scores = true;
  /// Persist DAG-deduplicated columns (kDict codec) plus the catalog and
  /// expansion metadata for every list that carries DagListData. No-op
  /// when the index was built without enable_dag.
  bool dag = false;
  /// Dictionary-encode the per-row length and score streams
  /// (EncodeDictRows) instead of raw varints / floats.
  bool dict_rows = false;
};

/// Writes a JDeweyIndex as the one on-disk image (docs/FORMATS.md):
///
///   data pages:   per term, in sorted term order — lengths blob, optional
///                 scores blob, then one column blob per level (kAuto
///                 codec, §III-D); then the node-mapping blob, the sidecar
///                 blob, and the directory blob last
///   checksum table: one CRC32C (fixed32 LE) per data page
///   footer page:  magic "XTKDISK2", format version 3, directory extent,
///                 checksum-table extent, sidecar extent, data page count,
///                 table CRC, footer CRC (over all preceding footer bytes)
///
/// Columns are separate blobs on purpose: a query that starts its scan at
/// level l0 (§III-B) touches only the pages of columns 1..l0.
///
/// The sidecar (DESIGN.md §15) holds a flags byte, the front-coded term
/// dictionary (terms live only there — directory entries carry no names
/// and a term's file id is its dictionary code), and, with the dag flag,
/// the subtree-DAG catalog plus per-term DAG metadata (which levels are
/// stored deduplicated, plus per-class row deltas). DAG-deduplicated
/// column blobs use the self-contained kDict codec; readers expand them
/// back to bit-identical full columns through ExpandDedupColumnChecked.
class DiskIndexWriter {
 public:
  using Options = DiskImageOptions;

  /// Writes the image to `path` and its SegmentManifest (planner
  /// statistics, per-term rows and max tf) to `path + ".manifest"`.
  /// `covered_nodes` is recorded in the manifest: the node count a sealed
  /// segment indexed (0 for a standalone index).
  static Status Write(const JDeweyIndex& index, const std::string& path,
                      const Options& options = {}, uint64_t covered_nodes = 0);
};

/// Options for opening a disk index's shared read substrate.
struct DiskIndexOptions {
  /// Buffer-pool capacity in 8 KiB pages and its shard count.
  size_t pool_pages = 1024;
  size_t pool_shards = BufferPool::kDefaultShards;
  /// Byte budget of the decoded-block cache (0 disables it — every access
  /// re-decodes, the pre-cache behaviour).
  size_t decoded_cache_bytes = 32u << 20;
  /// Skip-decode: sessions of this environment load only the group-varint
  /// blocks whose value range can intersect the query's probe bounds
  /// (SearchComplete derives them from the seed list). Results are
  /// bit-identical either way; the XTOPK_DISABLE_SKIP environment
  /// variable (any value but "0") forces this off at Open for A/B runs.
  bool enable_skip = true;
  /// Bounded retry of failed physical reads (transient I/O errors and
  /// checksum mismatches both retry — in-flight damage is transient; true
  /// on-disk corruption just exhausts the attempts and surfaces as the
  /// last error). `io_retries` is the number of *re*-attempts after the
  /// first failure; each waits `retry_backoff_us` microseconds longer
  /// than the previous one.
  uint32_t io_retries = 3;
  uint32_t retry_backoff_us = 50;
};

/// Aggregate I/O / cache counters of one disk index environment. Page
/// reads come from the environment's own PageFile; the cache fields are
/// deltas of the process-wide MetricsRegistry counters (storage.pool.*,
/// storage.decoded.*) against a baseline captured at Open / ResetIoStats —
/// exact when one environment is active between reset and read, which is
/// how every caller scopes them.
struct DiskIoStats {
  uint64_t pages_read = 0;   ///< physical page reads since last reset
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t decoded_hits = 0;    ///< decoded-block cache hits
  uint64_t decoded_misses = 0;
};

/// The shared, thread-safe read substrate of one on-disk index: the page
/// file (pread-based reads), the sharded BufferPool above it, the
/// DecodedBlockCache above that, and the immutable directory, node
/// mapping and manifest loaded at Open. Every physical page read is
/// verified against the image's CRC32C table before the pool caches it.
/// Any number of DiskJDeweyIndex sessions — one per concurrently running
/// query or worker thread — read through one environment, so hot pages
/// and decoded columns are shared across queries while per-query
/// materialization state stays private.
class DiskIndexEnv : public std::enable_shared_from_this<DiskIndexEnv> {
 public:
  /// Opens `path`, loading footer + directory + node mapping, and parses
  /// `path + ".manifest"` once (see manifest()).
  static StatusOr<std::shared_ptr<DiskIndexEnv>> Open(
      const std::string& path, DiskIndexOptions options = {});

  /// A new empty session. Cheap (no I/O, borrows the node mapping);
  /// safe to call from any thread. The session keeps the environment
  /// alive. Each session is single-threaded; concurrency comes from using
  /// one session per worker.
  std::unique_ptr<DiskJDeweyIndex> NewSession();

  /// Frequency / deepest level from the directory alone (no data I/O).
  uint32_t Frequency(const std::string& term) const;
  uint32_t MaxLength(const std::string& term) const;
  /// Planner statistics from the manifest; nullptr when the manifest is
  /// absent, damaged, or has no histograms for `term`. The manifest is
  /// advisory here — a missing or corrupt one never fails Open, it only
  /// costs plan quality.
  const TermStats* Stats(const std::string& term) const;
  /// The `<path>.manifest` parsed at Open, or why it could not be loaded
  /// (SealedSegment requires it; standalone readers only plan from it).
  const StatusOr<SegmentManifest>& manifest() const { return manifest_; }
  size_t term_count() const { return directory_.size(); }
  bool has_scores() const { return has_scores_; }
  /// Whether sessions may skip-decode (options.enable_skip, unless the
  /// XTOPK_DISABLE_SKIP environment variable overrode it at Open).
  bool skip_enabled() const { return skip_enabled_; }
  /// The segment's (level, value) -> node mapping / deepest level, from
  /// the node map loaded at Open. Immutable, so safe from any thread
  /// without a session (SegmentSetVersion resolves nodes through these).
  NodeId NodeAt(uint32_t level, uint32_t value) const {
    return node_map_.NodeAt(level, value);
  }
  uint32_t max_level() const { return node_map_.max_level(); }

  DiskIoStats io_stats() const;
  void ResetIoStats();

  const BufferPool& pool() const { return *pool_; }
  const DecodedBlockCache& decoded_cache() const { return *decoded_; }

 private:
  friend class DiskJDeweyIndex;

  /// Immutable per-term directory entry (shared across sessions).
  struct TermInfo {
    uint32_t term_id = 0;  ///< dictionary code; the decoded-cache column id
    uint32_t rows = 0;
    uint32_t max_length = 0;
    BlobExtent lengths;
    BlobExtent scores;  // length 0 when the file carries no scores
    std::vector<BlobExtent> columns;  // one per level
  };

  /// Sidecar: per-term DAG expansion metadata (which column blobs are
  /// stored deduplicated, and this term's per-class instance row deltas).
  struct DagTermMeta {
    std::vector<char> has_dedup;  ///< index = level - 1
    std::unordered_map<uint32_t, std::vector<int64_t>> row_deltas;
  };

  DiskIndexEnv() = default;

  /// Directory entry of `term` (its dictionary code indexes directory_);
  /// nullptr when absent.
  const TermInfo* FindTerm(const std::string& term) const;

  /// Thread-safe (reads go through the pool / pread). Failed attempts —
  /// transient I/O errors or checksum mismatches — are retried up to
  /// options.io_retries times with linear backoff before the last error
  /// is surfaced; the pool never caches a page from a failed read, so
  /// each retry hits the disk again.
  Status ReadBlob(const BlobExtent& extent, std::string* out);
  Status ReadBlobOnce(const BlobExtent& extent, std::string* out);
  /// Reads an extent straight from the file, bypassing pool and verifier
  /// (used for the checksum table, which is covered by the footer's
  /// table CRC rather than by itself).
  Status ReadBlobUnpooled(const BlobExtent& extent, std::string* out);
  /// The verifier installed on the buffer pool.
  Status VerifyPage(PageId id, const std::string& page) const;

  /// Plain PageFile normally; the fault-injecting wrapper when the
  /// process-wide FaultInjector is armed (tests, XTOPK_FAULT_INJECT).
  std::unique_ptr<PageFile> file_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<DecodedBlockCache> decoded_;
  bool has_scores_ = false;
  bool skip_enabled_ = true;
  uint32_t io_retries_ = 3;
  uint32_t retry_backoff_us_ = 50;
  /// Registry counter values at Open / last ResetIoStats; io_stats()
  /// reports the deltas since then (pages_read excluded — it stays on the
  /// PageFile instance).
  DiskIoStats stats_baseline_;
  /// CRC32C of each data page, indexed by PageId.
  std::vector<uint32_t> page_crcs_;
  /// The term space and the directory keyed by its codes.
  FrontCodedDict term_dict_;
  std::vector<TermInfo> directory_;
  /// Sidecar flags and DAG state (false / empty when the flag is off).
  bool dict_rows_ = false;
  std::shared_ptr<const DagCatalog> dag_catalog_;
  std::vector<std::unique_ptr<DagTermMeta>> dag_meta_;  ///< by term id
  /// Immutable after Open, so shared across sessions.
  StatusOr<SegmentManifest> manifest_ = Status::NotFound("manifest");
  /// Holds only the (level, value) -> node mapping + max level; sessions
  /// borrow it instead of copying it (it can dominate the directory size).
  JDeweyIndex node_map_;
};

/// Read side: a *session* over a shared DiskIndexEnv. Materializes each
/// queried term's columns lazily and only down to the level the query
/// needs. This is the paper's I/O story — "the algorithm does not read the
/// whole JDewey sequences from the disk at once … this would save disk I/O
/// when the XML tree is deep and some keywords only appear at high levels."
///
/// A session is not thread-safe; it is the per-query (or per-worker) view.
/// All sessions of one environment share its buffer pool and decoded-block
/// cache, so a list decoded by one query is a memcpy for the next.
///
/// A session IS a TermSource: JoinSearch / TopKSearch run directly against
/// it, which is what makes the disk path share the single implementation of
/// the paper's algorithms (Resolve = LoadList, bounds = skip-decode).
class DiskJDeweyIndex : public TermSource {
 public:
  using IoStats = DiskIoStats;

  /// Convenience: opens a private environment and returns its first
  /// session (the single-threaded usage most tests and tools want).
  static StatusOr<std::unique_ptr<DiskJDeweyIndex>> Open(
      const std::string& path, size_t pool_pages = 1024);

  /// Materializes `term`'s list with columns 1..up_to_level (clamped to
  /// the list's max length). Cached; later calls extend as needed.
  /// `need_scores` skips the scores blob (Fig. 9-style unranked runs).
  /// Returns nullptr if the term is absent.
  StatusOr<const JDeweyList*> LoadList(const std::string& term,
                                       uint32_t up_to_level,
                                       bool need_scores = true);

  /// Bounds-aware variant: `level_bounds[l - 1]` is the value range the
  /// query can touch at level l. Group-varint columns are materialized
  /// partially — only the blocks overlapping the range — which is sound
  /// whenever the caller joins the result against a list whose values all
  /// lie inside the bounds (the partial column is a superset of every run
  /// with a value in range). Levels already materialized more widely are
  /// left as-is; narrower prior loads are widened to the union range.
  StatusOr<const JDeweyList*> LoadList(
      const std::string& term, uint32_t up_to_level, bool need_scores,
      const std::vector<ValueBounds>* level_bounds);

  /// Frequency from the directory alone (no data I/O).
  uint32_t Frequency(const std::string& term) const override;
  /// Deepest occurrence level from the directory alone.
  uint32_t MaxLength(const std::string& term) const override;

  /// TermSource: Resolve is LoadList (bounded loads become skip-decodes
  /// when the environment has skip enabled; otherwise bounds are ignored
  /// inside MaterializeColumns and the full columns load).
  StatusOr<const JDeweyList*> Resolve(
      const std::string& term, uint32_t up_to_level, bool need_scores,
      const std::vector<ValueBounds>* level_bounds) override {
    return LoadList(term, up_to_level, need_scores, level_bounds);
  }
  NodeId NodeAt(uint32_t level, uint32_t value) const override {
    return view_.NodeAt(level, value);
  }
  uint32_t max_level() const override { return view_.max_level(); }
  const TermStats* Stats(const std::string& term) const override {
    return env_->Stats(term);
  }

  /// Evaluates a complete-result query against the disk-resident index:
  /// computes l0 from the directory, loads only columns 1..l0 of each
  /// keyword, and runs the join-based algorithm (Algorithm 1).
  StatusOr<std::vector<SearchResult>> SearchComplete(
      const std::vector<std::string>& keywords,
      JoinSearchOptions options = {});

  /// Like SearchComplete, and additionally copies the per-query
  /// JoinSearchStats (race-free: the counters live in the per-session
  /// JoinSearch object, never in shared state).
  StatusOr<std::vector<SearchResult>> SearchComplete(
      const std::vector<std::string>& keywords, JoinSearchOptions options,
      JoinSearchStats* stats);

  /// Top-k against the disk-resident index. The top-K algorithm's
  /// semantic pruning probes components below the current column, so the
  /// queried lists are materialized fully (all columns + scores) and the
  /// score segments derived on the fly.
  StatusOr<std::vector<SearchResult>> SearchTopK(
      const std::vector<std::string>& keywords, TopKSearchOptions options);

  /// A view usable by JoinSearch directly; contains exactly the lists
  /// loaded so far plus the (borrowed) node mapping.
  const JDeweyIndex& view() const { return view_; }

  /// Environment-wide counters (shared across sessions).
  IoStats io_stats() const { return env_->io_stats(); }
  void ResetIoStats() { env_->ResetIoStats(); }

  size_t term_count() const { return env_->term_count(); }
  const DiskIndexEnv& env() const { return *env_; }

 private:
  friend class DiskIndexEnv;

  /// What part of one level's column this session has materialized.
  struct LevelCoverage {
    bool full = false;     ///< whole column present in view_
    bool partial = false;  ///< contiguous block range [lo_block, hi_block)
    uint32_t lo_block = 0;
    uint32_t hi_block = 0;
  };

  /// Session-local materialization state of one term.
  struct TermState {
    bool scores_loaded = false;
    /// Slot in view_.
    uint32_t view_id = UINT32_MAX;
    /// Per-level coverage, index = level - 1 (sized at first load).
    std::vector<LevelCoverage> coverage;
    /// DAG terms: the session's mutable DagListData (the list holds a
    /// const view of the same object). has_dedup flips on per level as
    /// the deduplicated columns materialize.
    std::shared_ptr<DagListData> dag;
  };

  explicit DiskJDeweyIndex(std::shared_ptr<DiskIndexEnv> env);

  Status MaterializeBase(const std::string& term,
                         const DiskIndexEnv::TermInfo& info, TermState* state,
                         bool need_scores);
  Status MaterializeScores(const DiskIndexEnv::TermInfo& info,
                           TermState* state);
  Status MaterializeColumns(const DiskIndexEnv::TermInfo& info,
                            TermState* state, uint32_t up_to_level,
                            const std::vector<ValueBounds>* level_bounds);

  std::shared_ptr<DiskIndexEnv> env_;
  std::unordered_map<uint32_t, TermState> state_;  // keyed by term_id
  JDeweyIndex view_;
};

}  // namespace xtopk

#endif  // XTOPK_INDEX_DISK_INDEX_H_
