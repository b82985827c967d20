#include "index/index_builder.h"

#include <algorithm>
#include <numeric>

#include "index/dag.h"
#include "index/segment_builder.h"
#include "obs/metrics.h"
#include "xml/jdewey_builder.h"

namespace xtopk {

IndexBuilder::IndexBuilder(const XmlTree& tree, IndexBuildOptions options)
    : tree_(tree),
      options_(options),
      jdewey_(JDeweyBuilder::Assign(tree_, options_.jdewey_gap)) {
  // One segment over every node. Under a fresh encoding, sequence order is
  // document order, so every list's rows are in document order too.
  std::vector<NodeId> all(tree_.node_count());
  std::iota(all.begin(), all.end(), NodeId{0});
  index_ = BuildSegmentIndex(tree_, jdewey_, all, options_);
  if (options_.stats_buckets == 0) {
    std::vector<TermStats>().swap(index_.stats_);  // "no statistics"
  }

  // Raw tf -> local score. RawLocalScore is monotone in tf for a fixed df,
  // so the corpus max over every occurrence is the max over terms at each
  // term's max tf.
  const uint64_t corpus_nodes = tree_.node_count();
  double max_raw = 0.0;
  for (const JDeweyList& list : index_.lists_) {
    max_raw = std::max(
        max_raw, RawLocalScore(MaxTf(list), list.num_rows(), corpus_nodes));
  }
  if (max_raw <= 0.0) max_raw = 1.0;
  for (JDeweyList& list : index_.lists_) {
    ScoreRawTfs(list.num_rows(), corpus_nodes, max_raw, &list.scores);
  }

  term_infos_.reserve(index_.term_count());
  for (size_t t = 0; t < index_.term_count(); ++t) {
    term_infos_.push_back(
        TermInfo{index_.terms_[t], index_.lists_[t].num_rows()});
  }
  // Deterministic order for query generation.
  std::sort(term_infos_.begin(), term_infos_.end(),
            [](const TermInfo& a, const TermInfo& b) {
              return a.term < b.term;
            });

  // Structure-aware compression (DESIGN.md §15): share verified identical
  // subtrees and compact the term dictionary. Both are additive — the
  // exact lists above stay the source of truth.
  if (options_.enable_dag && !DagDisabledByEnv()) {
    SubtreeDagResult detected = DetectSharedSubtrees(tree_, options_.dag);
    DagBuildStats dag_stats = AttachDagData(tree_, jdewey_, detected,
                                            index_.max_level_, &index_.lists_);
    XTOPK_COUNTER("index.dag.classes").Add(dag_stats.classes);
    XTOPK_COUNTER("index.dag.shared_instances")
        .Add(dag_stats.shared_instances);
    XTOPK_COUNTER("index.dag.runs_removed").Add(dag_stats.runs_removed);
    XTOPK_COUNTER("index.dag.terms_affected").Add(dag_stats.terms_affected);
    XTOPK_COUNTER("index.dag.classes_rejected")
        .Add(dag_stats.classes_rejected);
  }
  if (options_.enable_dict && !DictDisabledByEnv()) {
    index_.CompactTermDictionary();
  }
  PublishResidentBytes(MeasureResidentBytes(index_));
}

DeweyIndex IndexBuilder::BuildDeweyIndex() const {
  // Dewey ids are computed here, their only reader, not held by the builder.
  const std::vector<DeweyId> deweys = AssignDeweyIds(tree_);
  DeweyIndex index;
  index.lists_.resize(index_.term_count());
  for (uint32_t t = 0; t < index_.term_count(); ++t) {
    index.term_ids_.emplace(index_.terms_[t], t);
    // JDewey rows are in document order, which is Dewey order.
    const JDeweyList& jlist = index_.lists_[t];
    DeweyList& list = index.lists_[t];
    list.scores = jlist.scores;
    list.nodes = jlist.nodes;
    list.deweys.reserve(jlist.nodes.size());
    for (NodeId node : jlist.nodes) list.deweys.push_back(deweys[node]);
  }
  return index;
}

TopKIndex IndexBuilder::BuildTopKIndex(const JDeweyIndex& base) const {
  // The segments depend only on the base index's rows and scores.
  return BuildTopKIndexFrom(base);
}

RdilIndex IndexBuilder::BuildRdilIndex(const DeweyIndex& base) const {
  RdilIndex index;
  index.base_ = &base;
  index.term_ids_ = base.term_ids_;
  index.lists_.resize(base.lists_.size());
  for (size_t t = 0; t < base.lists_.size(); ++t) {
    const DeweyList* dlist = &base.lists_[t];
    RdilList& list = index.lists_[t];
    list.base = dlist;
    list.by_score.resize(dlist->num_rows());
    for (uint32_t i = 0; i < dlist->num_rows(); ++i) list.by_score[i] = i;
    std::sort(list.by_score.begin(), list.by_score.end(),
              [&](uint32_t a, uint32_t b) {
                if (dlist->scores[a] != dlist->scores[b]) {
                  return dlist->scores[a] > dlist->scores[b];
                }
                return a < b;
              });
    list.dewey_btree = std::make_unique<BTree>(options_.btree_fanout);
    for (uint32_t row = 0; row < dlist->num_rows(); ++row) {
      list.dewey_btree->Insert(EncodeDeweyKey(dlist->deweys[row]), row);
    }
  }
  return index;
}

BTree IndexBuilder::BuildCombinedBTree(const DeweyIndex& base) const {
  BTree btree(options_.btree_fanout);
  for (const auto& [term, t] : base.term_ids_) {
    const DeweyList* dlist = &base.lists_[t];
    // Key: 4-byte big-endian term id, then the encoded Dewey id — the
    // (keyword, Dewey) composite the paper's BerkeleyDB store used.
    std::string prefix;
    prefix.push_back(static_cast<char>((t >> 24) & 0xFF));
    prefix.push_back(static_cast<char>((t >> 16) & 0xFF));
    prefix.push_back(static_cast<char>((t >> 8) & 0xFF));
    prefix.push_back(static_cast<char>(t & 0xFF));
    for (uint32_t row = 0; row < dlist->num_rows(); ++row) {
      btree.Insert(prefix + EncodeDeweyKey(dlist->deweys[row]), row);
    }
  }
  return btree;
}

}  // namespace xtopk
