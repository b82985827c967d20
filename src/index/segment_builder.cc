#include "index/segment_builder.h"

#include <algorithm>
#include <string>
#include <utility>

#include "index/index_access.h"
#include "xml/tokenizer.h"

namespace xtopk {

JDeweyIndex BuildSegmentIndex(const XmlTree& tree, const JDeweyEncoding& enc,
                              const std::vector<NodeId>& nodes,
                              const IndexBuildOptions& options) {
  JDeweyIndex index;
  auto* term_ids = IndexIoAccess::TermIds(&index);
  auto* terms = IndexIoAccess::Terms(&index);
  auto* lists = IndexIoAccess::Lists(&index);
  auto* level_nodes = IndexIoAccess::LevelNodes(&index);
  uint32_t* max_level = IndexIoAccess::MaxLevel(&index);

  // An occurrence names its node by slot, the node's position in `nodes`,
  // so the sequences live in one dense vector and the row sort's
  // comparisons index it directly.
  struct Occ {
    uint32_t slot = 0;
    uint32_t tf = 0;
  };
  std::vector<std::vector<Occ>> occurrences;
  std::vector<JDeweySeq> seqs(nodes.size());

  Tokenizer tokenizer(options.tokenizer);
  for (uint32_t slot = 0; slot < nodes.size(); ++slot) {
    NodeId id = nodes[slot];
    auto tf_map = tokenizer.TermFrequencies(tree.text(id));
    if (options.index_tag_names) {
      for (const auto& tag_token : tokenizer.Tokenize(tree.TagName(id))) {
        ++tf_map[tag_token];
      }
    }
    if (tf_map.empty()) continue;
    // The sequence drives both the row sort and the column fill.
    seqs[slot] = enc.SequenceOf(tree, id);
    for (const auto& [term, tf] : tf_map) {
      auto [it, inserted] =
          term_ids->emplace(term, static_cast<uint32_t>(occurrences.size()));
      if (inserted) occurrences.emplace_back();
      occurrences[it->second].push_back(Occ{slot, tf});
    }
  }

  terms->resize(term_ids->size());
  for (const auto& [term, id] : *term_ids) (*terms)[id] = term;

  lists->resize(occurrences.size());
  auto* stats = IndexIoAccess::Stats(&index);
  stats->resize(occurrences.size());
  auto before = [&](const Occ& a, const Occ& b) {
    return CompareJDewey(seqs[a.slot], seqs[b.slot]) < 0;
  };
  for (size_t t = 0; t < occurrences.size(); ++t) {
    auto& occs = occurrences[t];
    // Appended nodes usually arrive in sequence order already.
    if (!std::is_sorted(occs.begin(), occs.end(), before)) {
      std::sort(occs.begin(), occs.end(), before);
    }
    JDeweyList& list = (*lists)[t];
    uint32_t rows = static_cast<uint32_t>(occs.size());
    list.scores.resize(rows);
    list.nodes.resize(rows);
    for (uint32_t row = 0; row < rows; ++row) {
      list.scores[row] = static_cast<float>(occs[row].tf);
      list.nodes[row] = nodes[occs[row].slot];
    }
    FillColumns(
        rows, [&](uint32_t row) -> const JDeweySeq& {
          return seqs[occs[row].slot];
        },
        &list);
    (*stats)[t] = ComputeListStats(list, options.stats_buckets);
  }

  // (level, value) -> node over the covered nodes and their ancestors, so
  // results above the segment's own rows still resolve to tree nodes.
  std::vector<char> seen(tree.node_count(), 0);
  uint32_t deepest = 0;
  for (NodeId id : nodes) {
    for (NodeId cur = id; cur != kInvalidNode && !seen[cur];
         cur = tree.parent(cur)) {
      seen[cur] = 1;
      uint32_t level = tree.level(cur);
      deepest = std::max(deepest, level);
      if (level_nodes->size() < level) level_nodes->resize(level);
      (*level_nodes)[level - 1].emplace_back(enc.NumberOf(cur), cur);
    }
  }
  for (auto& level : *level_nodes) std::sort(level.begin(), level.end());
  *max_level = deepest;
  return index;
}

SegmentManifest ManifestFromSegment(const JDeweyIndex& segment) {
  SegmentManifest manifest;
  manifest.terms.reserve(segment.term_count());
  const auto& terms = segment.terms();
  const auto& lists = segment.lists();
  for (size_t t = 0; t < terms.size(); ++t) {
    SegmentTermStats stats;
    stats.term = terms[t];
    stats.rows = lists[t].num_rows();
    for (float tf : lists[t].scores) {
      stats.max_tf = std::max(stats.max_tf, static_cast<uint32_t>(tf));
    }
    // Planner histograms: reuse the build-time statistics when the index
    // carries them, otherwise derive them from the columns directly (the
    // Compact path hands in a merged index assembled via IndexIoAccess).
    const TermStats* list_stats = segment.StatsOf(terms[t]);
    if (list_stats != nullptr && list_stats->has_histograms()) {
      stats.levels = list_stats->levels;
    } else {
      stats.levels =
          ComputeListStats(lists[t], kDefaultStatsBuckets).levels;
    }
    manifest.terms.push_back(std::move(stats));
  }
  std::sort(manifest.terms.begin(), manifest.terms.end(),
            [](const SegmentTermStats& a, const SegmentTermStats& b) {
              return a.term < b.term;
            });
  return manifest;
}

}  // namespace xtopk
