#ifndef XTOPK_INDEX_INDEX_BUILDER_H_
#define XTOPK_INDEX_INDEX_BUILDER_H_

#include <cstdint>
#include <string>
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

/// Indexes one tree: BuildSegmentIndex over every node under a fresh JDewey
/// encoding, with raw tfs turned into tf·idf local scores (ScoreRawTfs), is
/// the column-oriented JDewey index, built once at construction. The other
/// index families the paper evaluates read their rows from it. The tree
/// must outlive the builder; built indexes are self-contained except where
/// documented.
class IndexBuilder {
 public:
  explicit IndexBuilder(const XmlTree& tree, IndexBuildOptions options = {});

  /// The column-oriented JDewey index (the join-based algorithms' input).
  const JDeweyIndex& jdewey_index() const { return index_; }

  /// An owned copy of jdewey_index(), for callers that keep it apart from
  /// the builder.
  JDeweyIndex BuildJDeweyIndex() const { return JDeweyIndex(index_); }

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

  /// All terms with their frequencies, sorted by term.
  const std::vector<TermInfo>& terms() const { return term_infos_; }

  const JDeweyEncoding& jdewey_encoding() const { return jdewey_; }
  const XmlTree& tree() const { return tree_; }

 private:
  const XmlTree& tree_;
  IndexBuildOptions options_;
  JDeweyEncoding jdewey_;
  JDeweyIndex index_;
  std::vector<TermInfo> term_infos_;
};

}  // namespace xtopk

#endif  // XTOPK_INDEX_INDEX_BUILDER_H_
