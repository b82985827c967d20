#include "index/index_validate.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>

#include "index/disk_index.h"
#include "index/index_builder.h"
#include "testing/corpus.h"
#include "testing/disk_image.h"

namespace xtopk {
namespace {

using testing::LoadAllLists;
using testing::MakeRandomTree;
using testing::MakeSmallCorpus;

/// Writes `index` as a disk image (scores optional) and validates the
/// fully loaded disk session's view against `tree`.
void ExpectPersistedCopyValidates(const JDeweyIndex& index,
                                  const XmlTree& tree, bool scores,
                                  const std::string& name) {
  std::string path = ::testing::TempDir() + "/" + name;
  DiskIndexWriter::Options options;
  options.include_scores = scores;
  ASSERT_TRUE(DiskIndexWriter::Write(index, path, options).ok());
  auto loaded = LoadAllLists(path, index.terms());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(ValidateIndex((*loaded)->view(), &tree).ok());
  std::remove(path.c_str());
  std::remove((path + ".manifest").c_str());
}

TEST(IndexValidateTest, FreshIndexesAreValid) {
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    XmlTree tree = MakeRandomTree(seed, 300, 4, 7, {"alpha", "beta"}, 0.2);
    IndexBuilder builder(tree);
    JDeweyIndex index = builder.BuildJDeweyIndex();
    EXPECT_TRUE(ValidateIndex(index).ok()) << seed;
    EXPECT_TRUE(ValidateIndex(index, &tree).ok()) << seed;
  }
}

TEST(IndexValidateTest, LoadedIndexValidates) {
  XmlTree tree = MakeSmallCorpus();
  IndexBuilder builder(tree);
  JDeweyIndex index = builder.BuildJDeweyIndex();
  ExpectPersistedCopyValidates(index, tree, /*scores=*/true,
                               "validate_loaded");
}

TEST(IndexValidateTest, NoScoresVariantAccepted) {
  XmlTree tree = MakeSmallCorpus();
  IndexBuilder builder(tree);
  JDeweyIndex index = builder.BuildJDeweyIndex();
  ExpectPersistedCopyValidates(index, tree, /*scores=*/false,
                               "validate_no_scores");
}

TEST(IndexValidateTest, BitFlippedFilesEitherFailDecodeOrValidate) {
  // Flip one bit of the image's data pages: the page checksums, the
  // decoder or the validator must catch the corruption (or the flip was
  // benign and all pass) — never a crash.
  XmlTree tree = MakeRandomTree(9, 150, 4, 6, {"alpha", "beta"}, 0.25);
  IndexBuilder builder(tree);
  JDeweyIndex index = builder.BuildJDeweyIndex();
  std::string path = ::testing::TempDir() + "/validate_bitflip";
  ASSERT_TRUE(DiskIndexWriter::Write(index, path).ok());
  std::string image;
  {
    std::ifstream in(path, std::ios::binary);
    image.assign(std::istreambuf_iterator<char>(in), {});
  }
  // Data pages precede the checksum-table page and the footer page.
  ASSERT_GE(image.size(), 3 * PageFile::kPageSize);
  const size_t data_bytes = image.size() - 2 * PageFile::kPageSize;

  Rng rng(123);
  int decode_failures = 0, validate_failures = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = image;
    size_t pos = rng.NextBounded(data_bytes);
    mutated[pos] = static_cast<char>(mutated[pos] ^
                                     (1u << rng.NextBounded(8)));
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
    }
    auto loaded = LoadAllLists(path, index.terms());
    if (!loaded.ok()) {
      ++decode_failures;
      continue;
    }
    if (!ValidateIndex((*loaded)->view()).ok()) ++validate_failures;
  }
  // Every data byte sits under a page CRC, so a large share of flips must
  // be caught somewhere.
  EXPECT_GT(decode_failures + validate_failures, 60);
  std::remove(path.c_str());
  std::remove((path + ".manifest").c_str());
}

}  // namespace
}  // namespace xtopk
