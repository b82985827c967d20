#include "index/segment_builder.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <string>
#include <utility>

#include "index/index_access.h"
#include "xml/tokenizer.h"

namespace xtopk {

namespace {

/// Fills `list`'s lengths, max_length and columns from its rows' JDewey
/// sequences, `seq_of(row)` for row in [0, rows), given in sequence order.
/// A first pass counts each level's runs, so every column's run vector is
/// allocated once at its exact size.
template <typename SeqOf>
void FillColumns(uint32_t rows, const SeqOf& seq_of, JDeweyList* list) {
  std::vector<size_t> runs;  // per level
  list->lengths.resize(rows);
  std::span<const uint32_t> prev;
  for (uint32_t row = 0; row < rows; ++row) {
    std::span<const uint32_t> seq = seq_of(row);
    if (runs.size() < seq.size()) runs.resize(seq.size(), 0);
    // Equal values at a level are contiguous rows (one subtree), so a row
    // opens a run unless the previous row reaches the level with its value.
    for (size_t i = 0; i < seq.size(); ++i) {
      if (i >= prev.size() || prev[i] != seq[i]) ++runs[i];
    }
    prev = seq;
    list->lengths[row] = static_cast<uint16_t>(seq.size());
  }
  list->max_length = static_cast<uint32_t>(runs.size());
  list->columns.resize(runs.size());
  for (size_t i = 0; i < runs.size(); ++i) {
    list->columns[i].ReserveRuns(runs[i]);
  }
  for (uint32_t row = 0; row < rows; ++row) {
    std::span<const uint32_t> seq = seq_of(row);
    for (size_t i = 0; i < seq.size(); ++i) {
      list->columns[i].Append(row, seq[i]);
    }
  }
}

}  // namespace

JDeweyIndex BuildSegmentIndex(const XmlTree& tree, const JDeweyEncoding& enc,
                              const std::vector<NodeId>& nodes,
                              const IndexBuildOptions& options) {
  JDeweyIndex index;
  auto* term_ids = IndexIoAccess::TermIds(&index);
  auto* terms = IndexIoAccess::Terms(&index);
  auto* lists = IndexIoAccess::Lists(&index);
  auto* level_nodes = IndexIoAccess::LevelNodes(&index);

  // The temporary data lives in a few flat buffers. A node is named by its
  // slot, its position in `nodes`; the JDewey sequences of the nodes that
  // carry terms sit back to back in `components`, slot s at
  // [seq_end[s], seq_end[s + 1]). Occurrences are kept in slot order until
  // a counting sort buckets them by term; term t's rows then fill
  // [term_begin[t], term_begin[t + 1]) of `by_term`.
  struct Row {
    uint32_t slot = 0;
    uint32_t tf = 0;
  };
  struct Occ {
    uint32_t term = 0;
    Row row;
  };
  std::vector<Occ> occs;
  std::vector<uint32_t> term_begin(1, 0);  // row counts until the scan
  std::vector<uint32_t> components;
  std::vector<uint32_t> seq_end(nodes.size() + 1, 0);

  Tokenizer tokenizer(options.tokenizer);
  for (uint32_t slot = 0; slot < nodes.size(); ++slot) {
    NodeId id = nodes[slot];
    auto tf_map = tokenizer.TermFrequencies(tree.text(id));
    if (options.index_tag_names) {
      for (const auto& tag_token : tokenizer.Tokenize(tree.TagName(id))) {
        ++tf_map[tag_token];
      }
    }
    if (!tf_map.empty()) {
      // The sequence drives both the row sort and the column fill.
      size_t begin = components.size();
      for (NodeId cur = id; cur != kInvalidNode; cur = tree.parent(cur)) {
        components.push_back(enc.NumberOf(cur));
      }
      std::reverse(components.begin() + begin, components.end());
    }
    seq_end[slot + 1] = static_cast<uint32_t>(components.size());
    for (const auto& [term, tf] : tf_map) {
      auto [it, inserted] =
          term_ids->emplace(term, static_cast<uint32_t>(term_begin.size() - 1));
      if (inserted) term_begin.push_back(0);
      ++term_begin[it->second + 1];
      occs.push_back(Occ{it->second, Row{slot, tf}});
    }
  }
  auto seq_of_slot = [&](uint32_t slot) {
    return std::span<const uint32_t>(components.data() + seq_end[slot],
                                     seq_end[slot + 1] - seq_end[slot]);
  };

  const size_t term_count = term_begin.size() - 1;
  std::partial_sum(term_begin.begin(), term_begin.end(), term_begin.begin());
  std::vector<Row> by_term(occs.size());
  std::vector<uint32_t> next(term_begin.begin(), term_begin.end() - 1);
  for (const Occ& occ : occs) by_term[next[occ.term]++] = occ.row;
  std::vector<Occ>().swap(occs);

  terms->resize(term_count);
  for (const auto& [term, id] : *term_ids) (*terms)[id] = term;

  lists->resize(term_count);
  auto* stats = IndexIoAccess::Stats(&index);
  stats->resize(term_count);
  auto before = [&](const Row& a, const Row& b) {
    return std::ranges::lexicographical_compare(seq_of_slot(a.slot),
                                                seq_of_slot(b.slot));
  };
  for (size_t t = 0; t < term_count; ++t) {
    Row* first = by_term.data() + term_begin[t];
    Row* last = by_term.data() + term_begin[t + 1];
    // Slot order is usually sequence order already: appended nodes, and a
    // fresh encoding over nodes created in document order.
    if (!std::is_sorted(first, last, before)) std::sort(first, last, before);
    JDeweyList& list = (*lists)[t];
    uint32_t rows = static_cast<uint32_t>(last - first);
    list.scores.resize(rows);
    list.nodes.resize(rows);
    for (uint32_t row = 0; row < rows; ++row) {
      list.scores[row] = static_cast<float>(first[row].tf);
      list.nodes[row] = nodes[first[row].slot];
    }
    FillColumns(
        rows, [&](uint32_t row) { return seq_of_slot(first[row].slot); },
        &list);
    (*stats)[t] = ComputeListStats(list, options.stats_buckets);
  }

  // (level, value) -> node over the covered nodes and their ancestors, so
  // results above the segment's own rows still resolve to tree nodes.
  std::vector<char> seen(tree.node_count(), 0);
  for (NodeId id : nodes) {
    for (NodeId cur = id; cur != kInvalidNode && !seen[cur];
         cur = tree.parent(cur)) {
      seen[cur] = 1;
      uint32_t level = tree.level(cur);
      if (level_nodes->size() < level) level_nodes->resize(level);
      (*level_nodes)[level - 1].emplace_back(enc.NumberOf(cur), cur);
    }
  }
  // An Engine keeps this map for its life: no growth slack.
  for (auto& level : *level_nodes) {
    std::sort(level.begin(), level.end());
    level.shrink_to_fit();
  }
  *IndexIoAccess::MaxLevel(&index) =
      static_cast<uint32_t>(level_nodes->size());
  return index;
}

uint32_t MaxTf(const JDeweyList& list) {
  uint32_t max_tf = 0;
  for (float tf : list.scores) {
    max_tf = std::max(max_tf, static_cast<uint32_t>(tf));
  }
  return max_tf;
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
    stats.max_tf = MaxTf(lists[t]);
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
