#ifndef XTOPK_INDEX_INDEX_BUILDER_H_
#define XTOPK_INDEX_INDEX_BUILDER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "btree/btree.h"
#include "core/scoring.h"
#include "index/dewey_index.h"
#include "index/jdewey_index.h"
#include "index/rdil_index.h"
#include "index/topk_index.h"
#include "xml/dewey.h"
#include "xml/jdewey.h"
#include "xml/subtree_dag.h"
#include "xml/tokenizer.h"
#include "xml/xml_tree.h"

namespace xtopk {

/// Knobs of the indexing pipeline.
struct IndexBuildOptions {
  /// Reserved child slots per parent in the JDewey encoding (§III-A).
  uint32_t jdewey_gap = 2;
  /// Index element tag names as keywords in addition to text tokens.
  bool index_tag_names = true;
  /// Tokenizer configuration (Lucene stand-in).
  Tokenizer::Options tokenizer;
  /// Ranking parameters used when computing local scores.
  ScoringParams scoring;
  /// Fanout of baseline B+-trees.
  size_t btree_fanout = 128;
  /// Worker threads for the per-term list materialization (1 = serial).
  /// Results are bit-identical across thread counts: every term writes to
  /// its own pre-sized slot.
  size_t build_threads = 1;
  /// Equal-height histogram buckets per (term, level) in the planner
  /// statistics computed at build time. 0 disables statistics.
  size_t stats_buckets = kDefaultStatsBuckets;
  /// Structure-aware compression (DESIGN.md §15): detect identical
  /// same-level subtrees, verify the JDewey translation against the
  /// materialized columns, and attach dedup columns + expansion metadata
  /// so the join layer processes each shared subtree once. Off by default
  /// (it perturbs join-step counters on repetitive corpora); the
  /// XTOPK_DISABLE_DAG environment variable force-disables it even when
  /// set here.
  bool enable_dag = false;
  SubtreeDagOptions dag;
  /// Compact the term dictionary of the built index into the front-coded
  /// form (storage/dictionary.h). XTOPK_DISABLE_DICT force-disables.
  bool enable_dict = false;
};

/// A term and its document frequency (inverted-list length); the query
/// generator selects keywords by frequency band from this table.
struct TermInfo {
  std::string term;
  uint32_t frequency = 0;
};

/// Runs the shared indexing pipeline over one tree — tokenization, Dewey
/// and JDewey assignment, tf·idf local scores — then materializes any of
/// the four index families the paper evaluates. The tree must outlive the
/// builder; the builder must outlive nothing (built indexes are
/// self-contained except where documented).
class IndexBuilder {
 public:
  explicit IndexBuilder(const XmlTree& tree, IndexBuildOptions options = {});

  /// Column-oriented JDewey index (the join-based algorithms' input).
  JDeweyIndex BuildJDeweyIndex() const;

  /// Document-order Dewey index (stack-based & index-based baselines).
  DeweyIndex BuildDeweyIndex() const;

  /// Score-ordered segment index for the join-based top-K algorithm.
  /// `base` must outlive the result.
  TopKIndex BuildTopKIndex(const JDeweyIndex& base) const;

  /// RDIL: score-ordered lists + per-keyword Dewey B+-trees. `base` must
  /// outlive the result.
  RdilIndex BuildRdilIndex(const DeweyIndex& base) const;

  /// The index-based baseline's storage model: one B+-tree holding every
  /// (keyword, Dewey id) pair as a key (paper §V-A explains why this is
  /// large). Used for Table I size accounting.
  BTree BuildCombinedBTree(const DeweyIndex& base) const;

  /// All terms with their frequencies, unordered.
  const std::vector<TermInfo>& terms() const { return term_infos_; }

  const JDeweyEncoding& jdewey_encoding() const { return jdewey_; }
  const XmlTree& tree() const { return tree_; }

 private:
  struct Occurrence {
    NodeId node = kInvalidNode;
    float score = 0.0f;
  };

  const XmlTree& tree_;
  IndexBuildOptions options_;
  JDeweyEncoding jdewey_;
  std::unordered_map<std::string, uint32_t> term_ids_;
  std::vector<std::vector<Occurrence>> occurrences_;  // per term, doc order
  std::vector<TermInfo> term_infos_;
};

}  // namespace xtopk

#endif  // XTOPK_INDEX_INDEX_BUILDER_H_
