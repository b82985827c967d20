#ifndef XTOPK_TESTS_TESTING_CORPUS_H_
#define XTOPK_TESTS_TESTING_CORPUS_H_

#include <algorithm>
#include <string>
#include <vector>

#include "core/search_result.h"
#include "util/rng.h"
#include "xml/xml_tree.h"

namespace xtopk {
namespace testing {

/// A small hand-checked corpus used across the algorithm tests:
///
///   db                                   (level 1)
///   ├── conf                             (level 2)
///   │   ├── paper  "xml data"            (level 3)  <- direct both
///   │   ├── paper                        (level 3)
///   │   │   ├── title "xml"              (level 4)
///   │   │   └── abs   "data"             (level 4)
///   │   └── paper                        (level 3)
///   │       └── title "xml"              (level 4)
///   └── conf                             (level 2)
///       ├── paper                        (level 3)
///       │   └── title "data"             (level 4)
///       └── paper                        (level 3)
///           └── title "xml data xml"     (level 4)
///
/// ELCA({xml, data}): paper#0 (direct), paper#1 (via children),
/// title "xml data xml" — and conf#1? conf#1 contains data (under paper#3)
/// and xml only under the matched title -> after exclusion conf#1 keeps
/// "data" but loses all xml -> NOT an ELCA. conf#0: both keywords only
/// under ELCA papers -> not an ELCA. db: same -> not.
/// SLCA({xml, data}): paper#0, paper#1, title "xml data xml".
inline XmlTree MakeSmallCorpus() {
  XmlTree tree;
  NodeId db = tree.CreateRoot("db");
  NodeId conf0 = tree.AddChild(db, "conf");
  NodeId p0 = tree.AddChild(conf0, "paper");
  tree.AppendText(p0, "xml data");
  NodeId p1 = tree.AddChild(conf0, "paper");
  NodeId p1t = tree.AddChild(p1, "title");
  tree.AppendText(p1t, "xml");
  NodeId p1a = tree.AddChild(p1, "abs");
  tree.AppendText(p1a, "data");
  NodeId p2 = tree.AddChild(conf0, "paper");
  NodeId p2t = tree.AddChild(p2, "title");
  tree.AppendText(p2t, "xml");
  NodeId conf1 = tree.AddChild(db, "conf");
  NodeId p3 = tree.AddChild(conf1, "paper");
  NodeId p3t = tree.AddChild(p3, "title");
  tree.AppendText(p3t, "data");
  NodeId p4 = tree.AddChild(conf1, "paper");
  NodeId p4t = tree.AddChild(p4, "title");
  tree.AppendText(p4t, "xml data xml");
  return tree;
}

/// Node ids of MakeSmallCorpus in creation order, for readable assertions.
struct SmallCorpusIds {
  static constexpr NodeId kDb = 0;
  static constexpr NodeId kConf0 = 1;
  static constexpr NodeId kPaper0 = 2;   // "xml data"
  static constexpr NodeId kPaper1 = 3;
  static constexpr NodeId kP1Title = 4;  // "xml"
  static constexpr NodeId kP1Abs = 5;    // "data"
  static constexpr NodeId kPaper2 = 6;
  static constexpr NodeId kP2Title = 7;  // "xml"
  static constexpr NodeId kConf1 = 8;
  static constexpr NodeId kPaper3 = 9;
  static constexpr NodeId kP3Title = 10;  // "data"
  static constexpr NodeId kPaper4 = 11;
  static constexpr NodeId kP4Title = 12;  // "xml data xml"
};

/// A random labeled tree for property tests: up to `max_nodes` elements,
/// random branching, keyword tokens drawn from `terms` with probability
/// `term_prob` each per node. Deterministic per seed.
inline XmlTree MakeRandomTree(uint64_t seed, size_t max_nodes,
                              uint32_t max_children, uint32_t max_depth,
                              const std::vector<std::string>& terms,
                              double term_prob) {
  Rng rng(seed);
  XmlTree tree;
  tree.CreateRoot("r");
  std::vector<NodeId> frontier = {tree.root()};
  while (tree.node_count() < max_nodes && !frontier.empty()) {
    size_t pick = rng.NextBounded(frontier.size());
    NodeId parent = frontier[pick];
    if (tree.level(parent) >= max_depth) {
      frontier.erase(frontier.begin() + pick);
      continue;
    }
    NodeId child = tree.AddChild(parent, "n");
    frontier.push_back(child);
    // Give every node a chance to carry each term.
    for (const std::string& term : terms) {
      if (rng.NextBernoulli(term_prob)) tree.AppendText(child, term);
    }
    // Occasionally close a node so shapes vary.
    if (rng.NextBernoulli(0.2) ||
        tree.Children(parent).size() >= max_children) {
      frontier.erase(frontier.begin() + pick);
    }
  }
  return tree;
}

/// A flat corpus of `records` <rec> elements under one <db> root, each with
/// a <title> holding title(i) and a <venue> holding venue(i): the caller
/// dictates per record how often, and how close together, keywords occur.
template <typename TitleFn, typename VenueFn>
XmlTree MakeRecordTree(size_t records, TitleFn title, VenueFn venue) {
  XmlTree tree;
  NodeId db = tree.CreateRoot("db");
  for (size_t i = 0; i < records; ++i) {
    NodeId rec = tree.AddChild(db, "rec");
    tree.AppendText(tree.AddChild(rec, "title"), title(i));
    tree.AppendText(tree.AddChild(rec, "venue"), venue(i));
  }
  return tree;
}

/// Strongly correlated keywords: "xml" and "data" share every record's
/// title (with varying term frequency, so scores differ).
inline XmlTree MakeCorrelatedRecords(size_t records) {
  return MakeRecordTree(
      records,
      [](size_t i) {
        return std::string(i % 3 == 0 ? "xml xml data" : "xml data");
      },
      [](size_t) { return std::string("proceedings"); });
}

/// Weakly correlated keywords: "rare" in one title of every 50, "common"
/// in every venue, so the only matches are whole records.
inline XmlTree MakeRareTimesFrequentRecords(size_t records) {
  return MakeRecordTree(
      records,
      [](size_t i) { return std::string(i % 50 == 0 ? "rare" : "plain"); },
      [](size_t) { return std::string("common"); });
}

/// High-repetition corpus family: `copies` identical multi-node subtrees
/// (an item with props/name/payload children carrying the planted terms)
/// attached under per-group containers, interleaved with unique filler
/// items so shared and unshared structure coexist. This is the corpus
/// shape the structure-aware compression layer (DESIGN.md §15) exists
/// for: every copy of the repeated item produces identical inverted-list
/// runs that the subtree DAG shares. Deterministic per seed.
inline XmlTree MakeRepeatedSubtreeTree(uint64_t seed, size_t groups,
                                       size_t copies_per_group,
                                       const std::vector<std::string>& terms) {
  Rng rng(seed * 0xD1B54A32D192ED03ull + 11);
  XmlTree tree;
  NodeId root = tree.CreateRoot("catalog");
  for (size_t g = 0; g < groups; ++g) {
    NodeId group = tree.AddChild(root, "section");
    // The repeated item: >= 4 nodes, terms fixed per group so every copy
    // within the group is structurally identical.
    size_t t0 = rng.NextBounded(terms.size());
    size_t t1 = rng.NextBounded(terms.size());
    for (size_t c = 0; c < copies_per_group; ++c) {
      NodeId item = tree.AddChild(group, "item");
      NodeId name = tree.AddChild(item, "name");
      tree.AppendText(name, terms[t0]);
      NodeId props = tree.AddChild(item, "props");
      NodeId payload = tree.AddChild(props, "payload");
      tree.AppendText(payload, terms[t1] + " " + terms[t0]);
      // Unique filler sibling between some copies so the shared regions
      // are not wall-to-wall contiguous.
      if (rng.NextBernoulli(0.3)) {
        NodeId filler = tree.AddChild(group, "note");
        tree.AppendText(filler, terms[rng.NextBounded(terms.size())] +
                                    " u" + std::to_string(g) + "_" +
                                    std::to_string(c));
      }
    }
  }
  return tree;
}

/// Shape parameters of one seeded random corpus. Derived deterministically
/// from a seed so a failing (seed) tuple in a differential or fault sweep
/// reproduces the whole document + workload.
struct CorpusSpec {
  uint64_t seed = 0;
  size_t nodes = 0;
  uint32_t max_children = 0;
  uint32_t max_depth = 0;
  double term_prob = 0.0;
  std::vector<std::string> terms;
  /// High-repetition family (MakeHighRepetitionSpec): the tree is built
  /// from repeated identical subtrees instead of the uniform random shape.
  bool repeated = false;
  size_t rep_groups = 0;
  size_t rep_copies = 0;
};

/// Deterministic corpus spec for `seed`: tree size, fan-out, depth and
/// term density all vary with the seed so a sweep over seeds covers
/// shallow/bushy, deep/narrow, dense and sparse occurrence patterns.
inline CorpusSpec MakeCorpusSpec(uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
  CorpusSpec spec;
  spec.seed = seed;
  spec.nodes = 60 + rng.NextBounded(540);          // 60..599 elements
  spec.max_children = 2 + static_cast<uint32_t>(rng.NextBounded(6));
  spec.max_depth = 3 + static_cast<uint32_t>(rng.NextBounded(10));
  spec.term_prob = 0.05 + 0.01 * static_cast<double>(rng.NextBounded(30));
  static const char* kVocab[] = {"alpha", "beta", "gamma", "delta", "eps"};
  size_t term_count = 2 + rng.NextBounded(3);  // 2..4 query-able terms
  for (size_t i = 0; i < term_count; ++i) spec.terms.push_back(kVocab[i]);
  return spec;
}

/// Deterministic spec of the high-repetition family: few distinct subtree
/// shapes, many identical copies each. The differential harness runs these
/// seeds with the compressed-index configuration so the DAG/dictionary
/// layer is exercised against the exact baselines.
inline CorpusSpec MakeHighRepetitionSpec(uint64_t seed) {
  Rng rng(seed * 0xBF58476D1CE4E5B9ull + 3);
  CorpusSpec spec;
  spec.seed = seed;
  spec.repeated = true;
  spec.rep_groups = 2 + rng.NextBounded(4);    // 2..5 distinct shapes
  spec.rep_copies = 6 + rng.NextBounded(20);   // 6..25 copies each
  static const char* kVocab[] = {"alpha", "beta", "gamma", "delta", "eps"};
  size_t term_count = 2 + rng.NextBounded(3);
  for (size_t i = 0; i < term_count; ++i) spec.terms.push_back(kVocab[i]);
  return spec;
}

inline XmlTree MakeCorpusTree(const CorpusSpec& spec) {
  if (spec.repeated) {
    return MakeRepeatedSubtreeTree(spec.seed, spec.rep_groups,
                                   spec.rep_copies, spec.terms);
  }
  return MakeRandomTree(spec.seed, spec.nodes, spec.max_children,
                        spec.max_depth, spec.terms, spec.term_prob);
}

/// One query of a seeded workload.
struct WorkloadQuery {
  std::vector<std::string> keywords;
  Semantics semantics = Semantics::kElca;
  size_t k = 10;  ///< top-K cutoff when the query runs ranked
};

/// A deterministic query workload over the spec's planted terms: distinct
/// keyword subsets of varying arity, both semantics, varying K.
inline std::vector<WorkloadQuery> MakeRandomWorkload(const CorpusSpec& spec,
                                                     size_t query_count) {
  Rng rng(spec.seed * 0x2545F4914F6CDD1Dull + 7);
  std::vector<WorkloadQuery> workload;
  workload.reserve(query_count);
  for (size_t q = 0; q < query_count; ++q) {
    WorkloadQuery query;
    std::vector<std::string> pool = spec.terms;
    size_t arity = 1 + rng.NextBounded(pool.size());
    for (size_t i = 0; i < arity; ++i) {
      size_t pick = rng.NextBounded(pool.size());
      query.keywords.push_back(pool[pick]);
      pool.erase(pool.begin() + static_cast<ptrdiff_t>(pick));
    }
    query.semantics = rng.NextBernoulli(0.5) ? Semantics::kElca
                                             : Semantics::kSlca;
    query.k = 1 + rng.NextBounded(12);
    workload.push_back(std::move(query));
  }
  return workload;
}

}  // namespace testing
}  // namespace xtopk

#endif  // XTOPK_TESTS_TESTING_CORPUS_H_
