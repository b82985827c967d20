// Persistence of both index families: the Dewey lists' XTD1 encoding
// (index_io) and the JDewey lists' paged disk image (DiskIndexWriter),
// which the tests below round-trip through a fully loaded disk session.

#include "index/index_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>

#include "core/join_search.h"
#include "core/topk_search.h"
#include "index/disk_index.h"
#include "index/index_builder.h"
#include "testing/corpus.h"
#include "testing/disk_image.h"
#include "util/rng.h"

namespace xtopk {
namespace {

using testing::LoadAllLists;
using testing::MakeRandomTree;
using testing::MakeSmallCorpus;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void RemoveImage(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".manifest").c_str());
}

/// `b` is a disk session's view: lists carry no occurrence nodes, so each
/// row's node is checked through the view's (level, value) -> node map.
void ExpectJDeweyIndexesEqual(const JDeweyIndex& a, const JDeweyIndex& b,
                              bool scores) {
  ASSERT_EQ(a.terms().size(), b.terms().size());
  EXPECT_EQ(a.max_level(), b.max_level());
  for (const std::string& term : a.terms()) {
    const JDeweyList* la = a.GetList(term);
    const JDeweyList* lb = b.GetList(term);
    ASSERT_NE(lb, nullptr) << term;
    ASSERT_EQ(la->num_rows(), lb->num_rows()) << term;
    EXPECT_EQ(la->lengths, lb->lengths) << term;
    if (scores) {
      EXPECT_EQ(la->scores, lb->scores) << term;
    }
    ASSERT_EQ(la->columns.size(), lb->columns.size()) << term;
    for (size_t c = 0; c < la->columns.size(); ++c) {
      ASSERT_EQ(la->columns[c].run_count(), lb->columns[c].run_count());
      for (size_t r = 0; r < la->columns[c].run_count(); ++r) {
        EXPECT_EQ(la->columns[c].runs()[r], lb->columns[c].runs()[r]);
      }
    }
    for (uint32_t row = 0; row < la->num_rows(); ++row) {
      const uint32_t len = la->lengths[row];
      const Run* run = lb->columns[len - 1].FindRow(row);
      ASSERT_NE(run, nullptr) << term << " row " << row;
      EXPECT_EQ(b.NodeAt(len, run->value), la->nodes[row]) << term;
    }
  }
}

/// Writes `index` as a disk image and checks the fully loaded copy.
void ExpectImageRoundTrips(const JDeweyIndex& index, bool scores,
                           const std::string& name) {
  std::string path = TempPath(name);
  DiskIndexWriter::Options options;
  options.include_scores = scores;
  ASSERT_TRUE(DiskIndexWriter::Write(index, path, options).ok());
  auto loaded = LoadAllLists(path, index.terms());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->env().has_scores(), scores);
  ExpectJDeweyIndexesEqual(index, (*loaded)->view(), scores);
  RemoveImage(path);
}

TEST(IndexIoTest, JDeweyRoundTripSmallCorpus) {
  XmlTree tree = MakeSmallCorpus();
  IndexBuilder builder(tree);
  JDeweyIndex index = builder.BuildJDeweyIndex();
  ExpectImageRoundTrips(index, /*scores=*/true, "index_io_small");
}

TEST(IndexIoTest, JDeweyRoundTripRandomTrees) {
  for (uint64_t seed : {101ull, 102ull, 103ull}) {
    XmlTree tree = MakeRandomTree(seed, 400, 4, 8,
                                  {"alpha", "beta", "gamma"}, 0.2);
    IndexBuilder builder(tree);
    JDeweyIndex index = builder.BuildJDeweyIndex();
    for (bool scores : {true, false}) {
      SCOPED_TRACE(::testing::Message() << seed << " scores " << scores);
      ExpectImageRoundTrips(index, scores, "index_io_random");
    }
  }
}

TEST(IndexIoTest, SearchOverLoadedIndexMatches) {
  XmlTree tree = MakeRandomTree(104, 500, 4, 7, {"alpha", "beta"}, 0.15);
  IndexBuildOptions options;
  options.index_tag_names = false;
  IndexBuilder builder(tree, options);
  JDeweyIndex index = builder.BuildJDeweyIndex();
  std::string path = TempPath("index_io_search");
  ASSERT_TRUE(DiskIndexWriter::Write(index, path).ok());
  auto loaded = DiskJDeweyIndex::Open(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  for (Semantics semantics : {Semantics::kElca, Semantics::kSlca}) {
    JoinSearchOptions search_options;
    search_options.semantics = semantics;
    JoinSearch original(index, search_options);
    auto a = original.Search({"alpha", "beta"});
    auto b = (*loaded)->SearchComplete({"alpha", "beta"}, search_options);
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ASSERT_EQ(a.size(), b->size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].node, (*b)[i].node);
      EXPECT_NEAR(a[i].score, (*b)[i].score, 1e-12);
    }
  }
  RemoveImage(path);
}

TEST(IndexIoTest, SaveLoadFile) {
  XmlTree tree = MakeSmallCorpus();
  IndexBuilder builder(tree);
  JDeweyIndex index = builder.BuildJDeweyIndex();
  std::string path = TempPath("xtopk_index_io_test.idx");
  ASSERT_TRUE(DiskIndexWriter::Write(index, path).ok());
  auto loaded = LoadAllLists(path, index.terms());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->term_count(), index.term_count());
  ExpectJDeweyIndexesEqual(index, (*loaded)->view(), true);
  RemoveImage(path);
}

TEST(IndexIoTest, LoadMissingFileIsIoError) {
  auto loaded = DiskJDeweyIndex::Open("/nonexistent/file.idx");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(IndexIoTest, RejectsBadMagicAndTruncation) {
  XmlTree tree = MakeSmallCorpus();
  IndexBuilder builder(tree);
  JDeweyIndex index = builder.BuildJDeweyIndex();
  std::string path = TempPath("index_io_damaged");
  ASSERT_TRUE(DiskIndexWriter::Write(index, path).ok());
  std::string image;
  {
    std::ifstream in(path, std::ios::binary);
    image.assign(std::istreambuf_iterator<char>(in), {});
  }
  auto rewrite = [&](const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };

  std::string bad = image;
  bad[image.size() - PageFile::kPageSize] = 'Z';  // footer magic
  rewrite(bad);
  auto opened = DiskJDeweyIndex::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);

  // Truncation anywhere must error, never crash.
  Rng rng(9);
  for (int trial = 0; trial < 30; ++trial) {
    size_t cut = 1 + rng.NextBounded(image.size() - 1);
    rewrite(image.substr(0, cut));
    auto partial = LoadAllLists(path, index.terms());
    EXPECT_FALSE(partial.ok()) << "cut at " << cut;
  }
  RemoveImage(path);
}

TEST(IndexIoTest, DeweyRoundTrip) {
  XmlTree tree = MakeRandomTree(105, 300, 5, 6, {"alpha", "beta"}, 0.25);
  IndexBuilder builder(tree);
  DeweyIndex index = builder.BuildDeweyIndex();
  std::string buf;
  index_io::EncodeDeweyIndex(index, &buf);
  DeweyIndex loaded;
  ASSERT_TRUE(index_io::DecodeDeweyIndex(buf, &loaded).ok());
  ASSERT_EQ(loaded.term_count(), index.term_count());
  const DeweyList* la = index.GetList("alpha");
  const DeweyList* lb = loaded.GetList("alpha");
  ASSERT_NE(lb, nullptr);
  ASSERT_EQ(la->num_rows(), lb->num_rows());
  for (uint32_t row = 0; row < la->num_rows(); ++row) {
    EXPECT_EQ(la->deweys[row], lb->deweys[row]);
    EXPECT_EQ(la->nodes[row], lb->nodes[row]);
    EXPECT_EQ(la->scores[row], lb->scores[row]);
  }
}

TEST(IndexIoTest, TopKOverLoadedIndexMatchesFresh) {
  XmlTree tree = MakeRandomTree(106, 600, 4, 7, {"alpha", "beta"}, 0.15);
  IndexBuildOptions options;
  options.index_tag_names = false;
  IndexBuilder builder(tree, options);
  JDeweyIndex index = builder.BuildJDeweyIndex();
  TopKIndex fresh_topk = builder.BuildTopKIndex(index);
  std::string path = TempPath("index_io_topk");
  ASSERT_TRUE(DiskIndexWriter::Write(index, path).ok());
  auto loaded = DiskJDeweyIndex::Open(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  TopKSearchOptions topk_options;
  topk_options.k = 8;
  TopKSearch a(fresh_topk, topk_options);
  auto want = a.Search({"alpha", "beta"});
  auto got = (*loaded)->SearchTopK({"alpha", "beta"}, topk_options);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->size(), want.size());
  for (size_t i = 0; i < got->size(); ++i) {
    EXPECT_EQ((*got)[i].node, want[i].node);
    EXPECT_NEAR((*got)[i].score, want[i].score, 1e-12);
  }
  RemoveImage(path);
}

TEST(IndexIoTest, DeweyRejectsGarbage) {
  DeweyIndex out;
  EXPECT_FALSE(index_io::DecodeDeweyIndex("garbage", &out).ok());
  EXPECT_FALSE(index_io::DecodeDeweyIndex("", &out).ok());
}

}  // namespace
}  // namespace xtopk
