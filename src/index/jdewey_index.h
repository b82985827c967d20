#ifndef XTOPK_INDEX_JDEWEY_INDEX_H_
#define XTOPK_INDEX_JDEWEY_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/column.h"
#include "storage/dictionary.h"
#include "storage/histogram.h"
#include "storage/sparse_index.h"
#include "util/status.h"
#include "xml/jdewey.h"
#include "xml/xml_tree.h"

namespace xtopk {

struct DagListData;

/// The column-oriented inverted list of one keyword (paper §III-A).
///
/// Rows are keyword occurrences sorted by JDewey sequence; column `l` holds
/// S(l) of every row whose sequence reaches level l, run-length encoded
/// (storage/column.h). Each row also carries the occurrence's sequence
/// length, its local ranking score g(v, w) and, from a build, its NodeId.
struct JDeweyList {
  std::vector<uint16_t> lengths;  ///< Per row: |S| (level of the occurrence).
  std::vector<float> scores;      ///< Per row: local score g(v, w).
  /// Per row: occurrence node. Filled by in-memory builds only; empty on
  /// segment-path lists (merged, memtable and disk-loaded).
  std::vector<NodeId> nodes;
  std::vector<Column> columns;    ///< columns[l-1] holds level l.
  uint32_t max_length = 0;        ///< Deepest occurrence level.
  /// Structure-aware compression companion (DESIGN.md §15): per-level
  /// deduplicated columns plus the exact expansion metadata. Null for
  /// terms untouched by subtree sharing (and whenever the builder ran
  /// with the DAG disabled); the full `columns` above always stay the
  /// source of truth, so every consumer that ignores `dag` is unaffected.
  std::shared_ptr<const DagListData> dag;

  uint32_t num_rows() const { return static_cast<uint32_t>(lengths.size()); }

  /// Column of 1-based `level`. Must satisfy 1 <= level <= max_length.
  const Column& column(uint32_t level) const { return columns[level - 1]; }

  /// S_row(level), i.e., the JDewey number of row's ancestor at `level`.
  /// Requires level <= lengths[row]. O(log runs).
  uint32_t Component(uint32_t row, uint32_t level) const;

  /// The full JDewey sequence of `row` (tests / result materialization).
  JDeweySeq SequenceOf(uint32_t row) const;
};

/// Keyword -> column-oriented inverted list, plus the (level, value) ->
/// NodeId reverse mapping needed to hand results back as tree nodes.
class JDeweyIndex {
 public:
  JDeweyIndex() = default;
  JDeweyIndex(JDeweyIndex&&) = default;
  JDeweyIndex& operator=(JDeweyIndex&&) = default;
  JDeweyIndex& operator=(const JDeweyIndex&) = delete;

  /// List for `term`, or nullptr if the term does not occur.
  const JDeweyList* GetList(const std::string& term) const;

  /// Document frequency (inverted-list length) of `term`; 0 if absent.
  uint32_t Frequency(const std::string& term) const;

  /// Node with JDewey number `value` at `level`; kInvalidNode if none.
  NodeId NodeAt(uint32_t level, uint32_t value) const;

  size_t term_count() const { return lists_.size(); }
  const std::vector<std::string>& terms() const { return terms_; }

  /// Deepest level of the encoded tree.
  uint32_t max_level() const { return max_level_; }

  /// Serialized size in bytes of the inverted lists under kAuto compression
  /// (Table I "IL" column). `include_scores` adds the per-row local scores
  /// (the Top-K Join variant stores them; the plain join-based one does
  /// not).
  uint64_t EncodedListBytes(bool include_scores) const;

  /// Serialized size of per-column sparse indexes (Table I "sparse").
  uint64_t SparseIndexBytes(uint32_t sample_rate = 64) const;

  /// All lists, index-aligned with terms() (term id order).
  const std::vector<JDeweyList>& lists() const { return lists_; }

  /// Planner statistics of `term` (per-level value histograms), or nullptr
  /// when the term is absent or the index carries no statistics (e.g. it
  /// was deserialized from the score-less in-memory format).
  const TermStats* StatsOf(const std::string& term) const;

  /// Whether this index carries build-time planner statistics.
  bool has_stats() const { return !stats_.empty(); }

  /// Replaces the term-id hash map with a front-coded dictionary
  /// (storage/dictionary.h): lookups translate through dictionary codes,
  /// term ids stay stable via a code -> id permutation. Only valid on a
  /// static index — incremental ingestion paths (disk sessions, index IO)
  /// mutate the hash map and must not run after compaction.
  void CompactTermDictionary();
  bool dictionary_compacted() const { return term_dict_.size() > 0; }
  const FrontCodedDict& term_dictionary() const { return term_dict_; }

 private:
  friend class IndexBuilder;
  friend struct IndexIoAccess;

  /// Copies are made only on purpose: IndexBuilder::BuildJDeweyIndex.
  JDeweyIndex(const JDeweyIndex&) = default;

  /// Looks a term up through whichever dictionary form is active; returns
  /// the term id or UINT32_MAX.
  uint32_t TermIdOf(const std::string& term) const;

  std::unordered_map<std::string, uint32_t> term_ids_;
  /// Compacted term space (CompactTermDictionary): codes are sorted
  /// positions; dict_code_to_id_ maps them back to stable term ids.
  FrontCodedDict term_dict_;
  std::vector<uint32_t> dict_code_to_id_;
  std::vector<std::string> terms_;
  std::vector<JDeweyList> lists_;
  /// Per-term planner statistics, index-aligned with lists_; empty when the
  /// index was built without statistics.
  std::vector<TermStats> stats_;
  /// Per level (1-based), (value, node) pairs sorted by value.
  std::vector<std::vector<std::pair<uint32_t, NodeId>>> level_nodes_;
  /// When set, NodeAt resolves against this mapping instead of
  /// level_nodes_. Disk-index sessions borrow the mapping their shared
  /// environment decoded once at Open instead of copying it per session;
  /// the owner must outlive this index. Set via IndexIoAccess.
  const std::vector<std::vector<std::pair<uint32_t, NodeId>>>*
      borrowed_level_nodes_ = nullptr;
  uint32_t max_level_ = 0;
};

/// Computes the planner statistics of one list: its row count plus one
/// equal-height histogram (<= `max_buckets` buckets) per level over the
/// list's distinct JDewey values. Used at build time by BuildSegmentIndex,
/// and by Compact when re-deriving exact statistics for a merged segment.
TermStats ComputeListStats(const JDeweyList& list, size_t max_buckets);

/// Per-component resident footprint of an in-memory index: what the
/// index.resident_bytes.{tree,postings,dictionary} gauges report and the
/// Table I bench breaks down. `tree` is the (level, value) -> node reverse
/// mapping, `postings` the row arrays + run columns (+ DAG companion
/// data), `dictionary` the term strings and their lookup structure.
struct ResidentBytesReport {
  uint64_t tree = 0;
  uint64_t postings = 0;
  uint64_t dictionary = 0;
  uint64_t total() const { return tree + postings + dictionary; }
};
ResidentBytesReport MeasureResidentBytes(const JDeweyIndex& index);

/// Publishes `report` to the index.resident_bytes.* gauges (exposed via
/// /vars on the serve port and the compact BENCH snapshot).
void PublishResidentBytes(const ResidentBytesReport& report);

}  // namespace xtopk

#endif  // XTOPK_INDEX_JDEWEY_INDEX_H_
