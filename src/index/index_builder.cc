#include "index/index_builder.h"

#include <algorithm>
#include <cassert>

#include "index/dag.h"
#include "obs/metrics.h"
#include "util/parallel.h"
#include "xml/jdewey_builder.h"

namespace xtopk {

IndexBuilder::IndexBuilder(const XmlTree& tree, IndexBuildOptions options)
    : tree_(tree), options_(options) {
  jdewey_ = JDeweyBuilder::Assign(tree_, options_.jdewey_gap);

  // Document-order (preorder) rank per node; sibling links give the order.
  // Creation order need not be document order (nodes can be appended under
  // any parent), but document order, Dewey order, and fresh-JDewey-sequence
  // order all coincide, so one rank sorts every index's rows.
  std::vector<uint32_t> doc_rank(tree_.node_count(), 0);
  if (!tree_.empty()) {
    uint32_t rank = 0;
    std::vector<NodeId> stack = {tree_.root()};
    while (!stack.empty()) {
      NodeId u = stack.back();
      stack.pop_back();
      doc_rank[u] = rank++;
      // Push children in reverse sibling order so the first child pops
      // first.
      std::vector<NodeId> kids;
      for (NodeId c = tree_.node(u).first_child; c != kInvalidNode;
           c = tree_.node(c).next_sibling) {
        kids.push_back(c);
      }
      for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
        stack.push_back(*it);
      }
    }
  }

  // Pass 1: tokenize every node; record (term, node, tf).
  Tokenizer tokenizer(options_.tokenizer);
  auto add_occurrence = [&](const std::string& term, NodeId node,
                            uint32_t tf) {
    auto [it, inserted] =
        term_ids_.emplace(term, static_cast<uint32_t>(occurrences_.size()));
    if (inserted) occurrences_.emplace_back();
    // The score field temporarily carries tf; converted below.
    occurrences_[it->second].push_back(
        Occurrence{node, static_cast<float>(tf)});
  };
  for (NodeId id = 0; id < tree_.node_count(); ++id) {
    auto tf_map = tokenizer.TermFrequencies(tree_.text(id));
    if (options_.index_tag_names) {
      for (const auto& tag_token : tokenizer.Tokenize(tree_.TagName(id))) {
        ++tf_map[tag_token];
      }
    }
    for (const auto& [term, tf] : tf_map) add_occurrence(term, id, tf);
  }
  // Rows of every index family are stored in document order. The builder
  // keeps the postings as long as its owner (an Engine: its lifetime), so
  // they drop their growth slack here.
  occurrences_.shrink_to_fit();
  for (auto& occs : occurrences_) {
    std::sort(occs.begin(), occs.end(),
              [&](const Occurrence& a, const Occurrence& b) {
                return doc_rank[a.node] < doc_rank[b.node];
              });
    occs.shrink_to_fit();
  }

  // Pass 2: convert tf to normalized tf·idf local scores.
  const uint64_t corpus_nodes = tree_.node_count();
  double max_raw = 0.0;
  for (const auto& occs : occurrences_) {
    for (const Occurrence& occ : occs) {
      double raw = RawLocalScore(static_cast<uint32_t>(occ.score),
                                 occs.size(), corpus_nodes);
      max_raw = std::max(max_raw, raw);
    }
  }
  if (max_raw <= 0.0) max_raw = 1.0;
  for (auto& occs : occurrences_) {
    for (Occurrence& occ : occs) {
      double raw = RawLocalScore(static_cast<uint32_t>(occ.score), occs.size(),
                                 corpus_nodes);
      occ.score = static_cast<float>(raw / max_raw);
    }
  }

  term_infos_.reserve(term_ids_.size());
  for (const auto& [term, id] : term_ids_) {
    term_infos_.push_back(
        TermInfo{term, static_cast<uint32_t>(occurrences_[id].size())});
  }
  // Deterministic order for query generation.
  std::sort(term_infos_.begin(), term_infos_.end(),
            [](const TermInfo& a, const TermInfo& b) {
              return a.term < b.term;
            });
}

JDeweyIndex IndexBuilder::BuildJDeweyIndex() const {
  JDeweyIndex index;
  index.term_ids_ = term_ids_;
  index.terms_.resize(term_ids_.size());
  for (const auto& [term, id] : term_ids_) index.terms_[id] = term;
  index.max_level_ = tree_.max_level();

  index.lists_.resize(occurrences_.size());
  if (options_.stats_buckets > 0) index.stats_.resize(occurrences_.size());
  // Per-term materialization is index-disjoint: safe (and deterministic)
  // to parallelize.
  ParallelFor(occurrences_.size(), options_.build_threads, [&](size_t t) {
    const auto& occs = occurrences_[t];
    JDeweyList& list = index.lists_[t];
    uint32_t rows = static_cast<uint32_t>(occs.size());
    list.scores.resize(rows);
    list.nodes.resize(rows);
    for (uint32_t row = 0; row < rows; ++row) {
      list.scores[row] = occs[row].score;
      list.nodes[row] = occs[row].node;
    }
    // Occurrences are in document order, which for a freshly built JDewey
    // encoding equals JDewey-sequence order.
    FillColumns(
        rows,
        [&](uint32_t row) { return jdewey_.SequenceOf(tree_, occs[row].node); },
        &list);
    if (options_.stats_buckets > 0) {
      index.stats_[t] = ComputeListStats(list, options_.stats_buckets);
    }
  });

  // Reverse (level, value) -> node mapping over all tree nodes.
  index.level_nodes_.resize(tree_.max_level());
  std::vector<size_t> per_level(tree_.max_level(), 0);
  for (NodeId id = 0; id < tree_.node_count(); ++id) {
    ++per_level[tree_.level(id) - 1];
  }
  for (size_t l = 0; l < per_level.size(); ++l) {
    index.level_nodes_[l].reserve(per_level[l]);
  }
  for (NodeId id = 0; id < tree_.node_count(); ++id) {
    index.level_nodes_[tree_.level(id) - 1].emplace_back(
        jdewey_.NumberOf(id), id);
  }
  for (auto& level : index.level_nodes_) {
    std::sort(level.begin(), level.end());
  }

  // Structure-aware compression (DESIGN.md §15): share verified identical
  // subtrees and compact the term dictionary. Both are additive — the
  // exact lists above stay the source of truth.
  if (options_.enable_dag && !DagDisabledByEnv()) {
    SubtreeDagResult detected = DetectSharedSubtrees(tree_, options_.dag);
    DagBuildStats dag_stats = AttachDagData(tree_, jdewey_, detected,
                                            index.max_level_, &index.lists_);
    XTOPK_COUNTER("index.dag.classes").Add(dag_stats.classes);
    XTOPK_COUNTER("index.dag.shared_instances")
        .Add(dag_stats.shared_instances);
    XTOPK_COUNTER("index.dag.runs_removed").Add(dag_stats.runs_removed);
    XTOPK_COUNTER("index.dag.terms_affected").Add(dag_stats.terms_affected);
    XTOPK_COUNTER("index.dag.classes_rejected")
        .Add(dag_stats.classes_rejected);
  }
  if (options_.enable_dict && !DictDisabledByEnv()) {
    index.CompactTermDictionary();
  }
  PublishResidentBytes(MeasureResidentBytes(index));
  return index;
}

DeweyIndex IndexBuilder::BuildDeweyIndex() const {
  // Dewey ids are computed here, their only reader, not held by the builder.
  const std::vector<DeweyId> deweys = AssignDeweyIds(tree_);
  DeweyIndex index;
  index.term_ids_ = term_ids_;
  index.lists_.resize(occurrences_.size());
  for (size_t t = 0; t < occurrences_.size(); ++t) {
    const auto& occs = occurrences_[t];
    DeweyList& list = index.lists_[t];
    list.deweys.reserve(occs.size());
    list.scores.reserve(occs.size());
    list.nodes.reserve(occs.size());
    // NodeId order is document order, which is Dewey order.
    for (const Occurrence& occ : occs) {
      list.deweys.push_back(deweys[occ.node]);
      list.scores.push_back(occ.score);
      list.nodes.push_back(occ.node);
    }
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
  index.term_ids_ = term_ids_;
  index.lists_.resize(occurrences_.size());
  for (const auto& [term, t] : term_ids_) {
    const DeweyList* dlist = base.GetList(term);
    assert(dlist != nullptr);
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
  for (const auto& [term, t] : term_ids_) {
    const DeweyList* dlist = base.GetList(term);
    assert(dlist != nullptr);
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
