// MergeJDeweyParts (index/segment_view.h) against the sort-based merge it
// replaced, kept here as the oracle. On the differential corpora, split
// interleaved, in contiguous ranges, with empty parts, as one part and as
// sealed parts followed by a memtable, both merges give identical lists
// (lengths, scores, runs, no NodeIds) whose rows map through the parts'
// (level, value) lookups to the monolithic list's nodes; and a compacted
// segment's image is byte-identical whichever merge built its lists.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "index/disk_index.h"
#include "index/index_access.h"
#include "index/index_builder.h"
#include "index/segment_builder.h"
#include "index/segment_view.h"
#include "testing/corpus.h"
#include "xml/jdewey_builder.h"

namespace xtopk {
namespace {

/// The merge MergeJDeweyParts replaced: materialize every row's JDewey
/// sequence, sort all rows, then append them one by one (NodeIds left
/// out, as MergeJDeweyParts leaves them).
JDeweyList SortMerge(const std::vector<const JDeweyList*>& parts) {
  struct RowRef {
    const JDeweyList* list = nullptr;
    uint32_t row = 0;
    JDeweySeq seq;
  };
  size_t total = 0;
  for (const JDeweyList* part : parts) total += part->num_rows();
  std::vector<RowRef> rows;
  rows.reserve(total);
  for (const JDeweyList* part : parts) {
    for (uint32_t r = 0; r < part->num_rows(); ++r) {
      rows.push_back(RowRef{part, r, part->SequenceOf(r)});
    }
  }
  std::sort(rows.begin(), rows.end(), [](const RowRef& a, const RowRef& b) {
    return CompareJDewey(a.seq, b.seq) < 0;
  });

  JDeweyList merged;
  merged.lengths.resize(total);
  merged.scores.resize(total);
  for (uint32_t i = 0; i < total; ++i) {
    const RowRef& ref = rows[i];
    uint16_t len = ref.list->lengths[ref.row];
    merged.lengths[i] = len;
    merged.scores[i] = ref.list->scores[ref.row];
    if (len > merged.max_length) merged.max_length = len;
    if (merged.columns.size() < len) merged.columns.resize(len);
    for (uint16_t level = 1; level <= len; ++level) {
      merged.columns[level - 1].Append(i, ref.seq[level - 1]);
    }
  }
  return merged;
}

void ExpectSameList(const JDeweyList& got, const JDeweyList& want,
                    const std::string& ctx) {
  ASSERT_EQ(got.num_rows(), want.num_rows()) << ctx;
  EXPECT_EQ(got.lengths, want.lengths) << ctx;
  EXPECT_EQ(got.scores, want.scores) << ctx;
  EXPECT_TRUE(got.nodes.empty()) << ctx;
  EXPECT_EQ(got.max_length, want.max_length) << ctx;
  ASSERT_EQ(got.columns.size(), want.columns.size()) << ctx;
  for (size_t l = 0; l < want.columns.size(); ++l) {
    EXPECT_EQ(got.columns[l].runs(), want.columns[l].runs())
        << ctx << " level " << (l + 1);
    EXPECT_EQ(got.columns[l].row_count(), want.columns[l].row_count())
        << ctx << " level " << (l + 1);
  }
}

/// How a corpus's nodes are split into segments.
enum class Split {
  kInterleaved,          ///< round-robin over 3 parts
  kContiguous,           ///< 3 node-id ranges
  kWithEmpty,            ///< 2 ranges around an empty part
  kOnePart,              ///< everything in one part
  kMemtableAfterSealed,  ///< 2 sealed ranges, then the last quarter
};

const char* SplitName(Split split) {
  switch (split) {
    case Split::kInterleaved: return "interleaved";
    case Split::kContiguous: return "contiguous";
    case Split::kWithEmpty: return "with-empty";
    case Split::kOnePart: return "one-part";
    case Split::kMemtableAfterSealed: return "memtable-after-sealed";
  }
  return "?";
}

std::vector<std::vector<NodeId>> SplitNodes(size_t n, Split split) {
  std::vector<std::vector<NodeId>> groups;
  auto ranges = [&](std::vector<size_t> cuts) {
    size_t begin = 0;
    for (size_t end : cuts) {
      groups.emplace_back();
      for (size_t id = begin; id < end; ++id) groups.back().push_back(id);
      begin = end;
    }
  };
  switch (split) {
    case Split::kInterleaved:
      groups.resize(3);
      for (size_t id = 0; id < n; ++id) groups[id % 3].push_back(id);
      break;
    case Split::kContiguous:
      ranges({n / 3, 2 * n / 3, n});
      break;
    case Split::kWithEmpty:
      ranges({n / 2, n / 2, n});
      break;
    case Split::kOnePart:
      ranges({n});
      break;
    case Split::kMemtableAfterSealed:
      ranges({3 * n / 8, 3 * n / 4, n});
      break;
  }
  return groups;
}

/// Checks MergeJDeweyParts against SortMerge for every term of `tree`
/// split by `split`, and each merged row's (level, value) lookup in the
/// parts against the node of that row in a build over every node. For
/// the memtable split it also checks the two-step merge a version does
/// (the sealed parts merged first, then the memtable after them).
void CheckTree(const XmlTree& tree, Split split, const std::string& label) {
  IndexBuildOptions options;
  JDeweyEncoding enc = JDeweyBuilder::Assign(tree, options.jdewey_gap);
  std::vector<std::vector<NodeId>> groups =
      SplitNodes(tree.node_count(), split);
  std::vector<JDeweyIndex> segments;
  std::set<std::string> terms;
  std::vector<NodeId> all;
  for (const auto& group : groups) {
    segments.push_back(BuildSegmentIndex(tree, enc, group, options));
    for (const std::string& term : segments.back().terms()) {
      terms.insert(term);
    }
    all.insert(all.end(), group.begin(), group.end());
  }
  const JDeweyIndex monolithic = BuildSegmentIndex(tree, enc, all, options);
  auto node_at = [&](uint32_t level, uint32_t value) {
    for (const JDeweyIndex& segment : segments) {
      NodeId node = segment.NodeAt(level, value);
      if (node != kInvalidNode) return node;
    }
    return kInvalidNode;
  };
  const JDeweyList empty;
  for (const std::string& term : terms) {
    const std::string ctx = label + " " + SplitName(split) + " term=" + term;
    std::vector<const JDeweyList*> parts;
    for (const JDeweyIndex& segment : segments) {
      const JDeweyList* list = segment.GetList(term);
      if (list == nullptr) {
        // An empty part still has to merge away.
        if (split == Split::kWithEmpty) parts.push_back(&empty);
        continue;
      }
      parts.push_back(list);
    }
    const JDeweyList want = SortMerge(parts);
    const JDeweyList got = MergeJDeweyParts(parts);
    ExpectSameList(got, want, ctx);
    const JDeweyList& whole = *monolithic.GetList(term);
    ASSERT_EQ(got.num_rows(), whole.num_rows()) << ctx;
    for (uint32_t row = 0; row < got.num_rows(); ++row) {
      uint32_t level = got.lengths[row];
      EXPECT_EQ(node_at(level, got.Component(row, level)), whole.nodes[row])
          << ctx << " row " << row;
    }

    if (split == Split::kMemtableAfterSealed) {
      std::vector<const JDeweyList*> sealed(parts.begin(), parts.end());
      const JDeweyList* memtable = nullptr;
      if (segments.back().GetList(term) != nullptr) {
        memtable = sealed.back();
        sealed.pop_back();
      }
      std::vector<const JDeweyList*> version;
      JDeweyList sealed_merged;
      if (!sealed.empty()) {
        sealed_merged = MergeJDeweyParts(sealed);
        version.push_back(&sealed_merged);
      }
      if (memtable != nullptr) version.push_back(memtable);
      ExpectSameList(MergeJDeweyParts(version), want, ctx + " two-step");
    }
  }
}

constexpr Split kSplits[] = {Split::kInterleaved, Split::kContiguous,
                             Split::kWithEmpty, Split::kOnePart,
                             Split::kMemtableAfterSealed};

TEST(SegmentMergeTest, MatchesSortMergeOnDifferentialCorpora) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    XmlTree tree = testing::MakeCorpusTree(testing::MakeCorpusSpec(seed));
    for (Split split : kSplits) {
      CheckTree(tree, split, "seed=" + std::to_string(seed));
    }
  }
}

TEST(SegmentMergeTest, MatchesSortMergeOnHighRepetitionCorpora) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    XmlTree tree =
        testing::MakeCorpusTree(testing::MakeHighRepetitionSpec(seed));
    for (Split split : kSplits) {
      CheckTree(tree, split, "rep seed=" + std::to_string(seed));
    }
  }
}

TEST(SegmentMergeTest, NoPartsAndEmptyPartsMergeToAnEmptyList) {
  const JDeweyList empty;
  for (const auto& parts : {std::vector<const JDeweyList*>{},
                            std::vector<const JDeweyList*>{&empty, &empty}}) {
    JDeweyList merged = MergeJDeweyParts(parts);
    EXPECT_EQ(merged.num_rows(), 0u);
    EXPECT_EQ(merged.max_length, 0u);
    EXPECT_TRUE(merged.columns.empty());
    EXPECT_TRUE(merged.nodes.empty());
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(SegmentMergeTest, CompactedImageIsByteIdenticalToSortMergeImage) {
  const std::string base = ::testing::TempDir() + "/segment_merge." +
                           std::to_string(static_cast<long>(::getpid()));
  for (uint64_t seed : {2u, 5u, 9u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    XmlTree tree = testing::MakeCorpusTree(testing::MakeCorpusSpec(seed));
    IndexBuildOptions options;
    JDeweyEncoding enc = JDeweyBuilder::Assign(tree, options.jdewey_gap);
    // One disk input and two memory inputs, interleaved node sets.
    std::vector<std::vector<NodeId>> groups =
        SplitNodes(tree.node_count(), Split::kInterleaved);
    std::vector<std::shared_ptr<const SealedSegment>> inputs;
    const std::string input_path = base + "_in" + std::to_string(seed);
    for (size_t i = 0; i < groups.size(); ++i) {
      JDeweyIndex segment = BuildSegmentIndex(tree, enc, groups[i], options);
      if (i == 0) {
        ASSERT_TRUE(
            DiskIndexWriter::Write(segment, input_path, {}, groups[i].size())
                .ok());
        auto disk = SealedSegment::FromDisk(input_path);
        ASSERT_TRUE(disk.ok()) << disk.status().ToString();
        inputs.push_back(*disk);
      } else {
        inputs.push_back(
            SealedSegment::FromMemory(std::move(segment), groups[i].size()));
      }
    }

    uint64_t covered = 0;
    StatusOr<JDeweyIndex> compacted = BuildCompactedSegment(inputs, &covered);
    ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
    const std::string got_path = base + "_got" + std::to_string(seed);
    ASSERT_TRUE(DiskIndexWriter::Write(*compacted, got_path, {}, covered).ok());

    // The same index with every list rebuilt by the sort merge.
    auto session = inputs[0]->env()->NewSession();
    const std::vector<std::string> terms = compacted->terms();
    for (size_t t = 0; t < terms.size(); ++t) {
      std::vector<const JDeweyList*> parts;
      for (const auto& input : inputs) {
        if (input->FindTerm(terms[t]) == nullptr) continue;
        if (input->is_memory()) {
          parts.push_back(input->memory()->GetList(terms[t]));
        } else {
          auto loaded = session->LoadList(terms[t], UINT32_MAX, true, nullptr);
          ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
          parts.push_back(*loaded);
        }
      }
      (*IndexIoAccess::Lists(&*compacted))[t] = SortMerge(parts);
    }
    const std::string want_path = base + "_want" + std::to_string(seed);
    ASSERT_TRUE(
        DiskIndexWriter::Write(*compacted, want_path, {}, covered).ok());

    const std::string got = ReadFile(got_path);
    EXPECT_FALSE(got.empty());
    EXPECT_TRUE(got == ReadFile(want_path)) << "segment images differ";
    EXPECT_TRUE(ReadFile(got_path + ".manifest") ==
                ReadFile(want_path + ".manifest"))
        << "manifests differ";
    session.reset();
    inputs.clear();
    for (const std::string& path : {input_path, got_path, want_path}) {
      std::remove(path.c_str());
      std::remove((path + ".manifest").c_str());
    }
  }
}

}  // namespace
}  // namespace xtopk
