#include "index/disk_index.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>

#include "core/join_search.h"
#include "core/topk_search.h"
#include "index/index_builder.h"
#include "storage/serializer.h"
#include "testing/corpus.h"
#include "util/crc32c.h"
#include "util/varint.h"
#include "workload/xmark_gen.h"

namespace xtopk {
namespace {

using testing::MakeRandomTree;
using testing::MakeSmallCorpus;

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(DiskIndexTest, RoundTripSearchMatchesInMemory) {
  XmlTree tree = MakeRandomTree(201, 600, 4, 8, {"alpha", "beta"}, 0.15);
  IndexBuildOptions options;
  options.index_tag_names = false;
  IndexBuilder builder(tree, options);
  JDeweyIndex jindex = builder.BuildJDeweyIndex();

  std::string path = TempPath("disk_index_roundtrip");
  ASSERT_TRUE(DiskIndexWriter::Write(jindex, path).ok());
  auto disk = DiskJDeweyIndex::Open(path);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();

  for (Semantics semantics : {Semantics::kElca, Semantics::kSlca}) {
    JoinSearchOptions search_options;
    search_options.semantics = semantics;
    JoinSearch memory_search(jindex, search_options);
    auto want = memory_search.Search({"alpha", "beta"});
    auto got = (*disk)->SearchComplete({"alpha", "beta"}, search_options);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ((*got)[i].node, want[i].node);
      EXPECT_NEAR((*got)[i].score, want[i].score, 1e-12);
    }
  }
  std::remove(path.c_str());
}

TEST(DiskIndexTest, DirectoryAnswersWithoutDataIo) {
  XmlTree tree = MakeSmallCorpus();
  IndexBuilder builder(tree);
  JDeweyIndex jindex = builder.BuildJDeweyIndex();
  std::string path = TempPath("disk_index_directory");
  ASSERT_TRUE(DiskIndexWriter::Write(jindex, path).ok());
  auto disk = DiskJDeweyIndex::Open(path);
  ASSERT_TRUE(disk.ok());
  (*disk)->ResetIoStats();
  EXPECT_EQ((*disk)->Frequency("xml"), 4u);
  EXPECT_EQ((*disk)->Frequency("absent"), 0u);
  EXPECT_EQ((*disk)->MaxLength("xml"), 4u);
  EXPECT_EQ((*disk)->io_stats().pages_read, 0u);
  std::remove(path.c_str());
}

TEST(DiskIndexTest, LazyColumnsSaveIoForShallowL0) {
  // A deep corpus where "shallow" only occurs at level <= 3 while "deep"
  // occurs down to the leaves: the query's l0 is small, so only a prefix
  // of "deep"'s columns is ever read (§III-B's I/O claim).
  XmlTree tree;
  NodeId root = tree.CreateRoot("r");
  for (int branch = 0; branch < 1500; ++branch) {
    NodeId mid = tree.AddChild(root, "m");
    tree.AppendText(mid, "shallow");
    NodeId cur = mid;
    for (int depth = 0; depth < 10; ++depth) {
      cur = tree.AddChild(cur, "d");
      tree.AppendText(cur, "deep");
    }
  }
  IndexBuildOptions options;
  options.index_tag_names = false;
  IndexBuilder builder(tree, options);
  JDeweyIndex jindex = builder.BuildJDeweyIndex();

  std::string path = TempPath("disk_index_lazy");
  ASSERT_TRUE(DiskIndexWriter::Write(jindex, path).ok());

  // Query {shallow, deep}: l0 = max occurrence level of "shallow" = 2.
  auto disk = DiskJDeweyIndex::Open(path, /*pool_pages=*/4096);
  ASSERT_TRUE(disk.ok());
  (*disk)->ResetIoStats();
  auto results = (*disk)->SearchComplete({"shallow", "deep"});
  ASSERT_TRUE(results.ok());
  EXPECT_FALSE(results->empty());
  uint64_t shallow_query_pages = (*disk)->io_stats().pages_read;

  // Fully materializing "deep" (all 12 levels) costs strictly more pages.
  auto disk_full = DiskJDeweyIndex::Open(path, 4096);
  ASSERT_TRUE(disk_full.ok());
  (*disk_full)->ResetIoStats();
  auto list = (*disk_full)->LoadList("deep", 12);
  ASSERT_TRUE(list.ok());
  uint64_t full_load_pages = (*disk_full)->io_stats().pages_read;
  EXPECT_LT(shallow_query_pages, full_load_pages);
  std::remove(path.c_str());
}

TEST(DiskIndexTest, LoadListExtendsIncrementally) {
  XmlTree tree = MakeSmallCorpus();
  IndexBuilder builder(tree);
  JDeweyIndex jindex = builder.BuildJDeweyIndex();
  std::string path = TempPath("disk_index_extend");
  ASSERT_TRUE(DiskIndexWriter::Write(jindex, path).ok());
  auto disk = DiskJDeweyIndex::Open(path);
  ASSERT_TRUE(disk.ok());

  auto partial = (*disk)->LoadList("xml", 2);
  ASSERT_TRUE(partial.ok());
  ASSERT_NE(*partial, nullptr);
  EXPECT_FALSE((*partial)->column(1).empty());
  EXPECT_FALSE((*partial)->column(2).empty());
  EXPECT_TRUE((*partial)->column(4).empty());  // not yet loaded

  auto full = (*disk)->LoadList("xml", 4);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(*full, *partial);  // same cached list object
  EXPECT_FALSE((*full)->column(4).empty());

  auto missing = (*disk)->LoadList("absent", 4);
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(*missing, nullptr);
  std::remove(path.c_str());
}

TEST(DiskIndexTest, TopKOverDiskMatchesInMemory) {
  XmlTree tree = MakeRandomTree(202, 700, 4, 8, {"alpha", "beta"}, 0.15);
  IndexBuildOptions options;
  options.index_tag_names = false;
  IndexBuilder builder(tree, options);
  JDeweyIndex jindex = builder.BuildJDeweyIndex();
  TopKIndex memory_topk = builder.BuildTopKIndex(jindex);

  std::string path = TempPath("disk_index_topk");
  ASSERT_TRUE(DiskIndexWriter::Write(jindex, path).ok());
  auto disk = DiskJDeweyIndex::Open(path);
  ASSERT_TRUE(disk.ok());

  TopKSearchOptions topk_options;
  topk_options.k = 7;
  TopKSearch memory_search(memory_topk, topk_options);
  auto want = memory_search.Search({"alpha", "beta"});
  auto got = (*disk)->SearchTopK({"alpha", "beta"}, topk_options);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ((*got)[i].node, want[i].node);
    EXPECT_NEAR((*got)[i].score, want[i].score, 1e-12);
  }
  // Missing keyword: clean empty result.
  auto none = (*disk)->SearchTopK({"alpha", "zzz"}, topk_options);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
  std::remove(path.c_str());
}

TEST(DiskIndexTest, CorruptFooterRejected) {
  std::string path = TempPath("disk_index_corrupt");
  PageFile file;
  ASSERT_TRUE(file.Open(path, true).ok());
  ASSERT_TRUE(file.AppendPage("not a footer").ok());
  ASSERT_TRUE(file.Close().ok());
  auto disk = DiskJDeweyIndex::Open(path);
  ASSERT_FALSE(disk.ok());
  EXPECT_EQ(disk.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(DiskIndexTest, StatsComeFromTheManifestWrittenBesideTheImage) {
  XmlTree tree = MakeRandomTree(207, 400, 4, 7, {"alpha", "beta"}, 0.2);
  IndexBuilder builder(tree);
  JDeweyIndex jindex = builder.BuildJDeweyIndex();
  std::string path = TempPath("disk_index_stats");
  ASSERT_TRUE(DiskIndexWriter::Write(jindex, path).ok());

  auto env = DiskIndexEnv::Open(path);
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  ASSERT_TRUE((*env)->manifest().ok());
  EXPECT_EQ((*env)->manifest()->terms.size(), jindex.term_count());
  size_t checked = 0;
  for (const std::string& term : jindex.terms()) {
    const TermStats* want = jindex.StatsOf(term);
    ASSERT_NE(want, nullptr) << term;
    const TermStats* got = (*env)->Stats(term);
    if (!want->has_histograms()) continue;
    ASSERT_NE(got, nullptr) << term;
    EXPECT_EQ(got->rows, want->rows) << term;
    ASSERT_EQ(got->levels.size(), want->levels.size()) << term;
    for (size_t l = 0; l < want->levels.size(); ++l) {
      EXPECT_EQ(got->levels[l].buckets().size(),
                want->levels[l].buckets().size());
    }
    ++checked;
  }
  EXPECT_GT(checked, 0u);
  EXPECT_EQ((*env)->Stats("no-such-term"), nullptr);

  // The manifest is advisory for a standalone reader: without it Open
  // still succeeds, planning just loses its histograms.
  std::remove((path + ".manifest").c_str());
  auto bare = DiskIndexEnv::Open(path);
  ASSERT_TRUE(bare.ok()) << bare.status().ToString();
  EXPECT_FALSE((*bare)->manifest().ok());
  EXPECT_EQ((*bare)->Stats("alpha"), nullptr);
  EXPECT_EQ((*bare)->Frequency("alpha"), jindex.Frequency("alpha"));
  std::remove(path.c_str());
}

/// The raw bytes of an image plus its parsed footer, so tests can forge
/// retired footers and sidecars with valid checksums.
struct ImageBytes {
  std::string bytes;
  uint32_t version = 0;
  std::vector<uint64_t> extents;  ///< dir, table, sidecar: page, off, len
  uint32_t data_pages = 0;

  size_t footer_offset() const { return bytes.size() - PageFile::kPageSize; }
};

ImageBytes ReadImage(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  ImageBytes image;
  image.bytes.assign(std::istreambuf_iterator<char>(in), {});
  std::string footer = image.bytes.substr(image.footer_offset());
  size_t pos = 8;
  EXPECT_TRUE(varint::GetU32(footer, &pos, &image.version).ok());
  for (int e = 0; e < 3; ++e) {
    uint32_t page = 0, offset = 0;
    uint64_t length = 0;
    EXPECT_TRUE(varint::GetU32(footer, &pos, &page).ok());
    EXPECT_TRUE(varint::GetU32(footer, &pos, &offset).ok());
    EXPECT_TRUE(varint::GetU64(footer, &pos, &length).ok());
    image.extents.insert(image.extents.end(), {page, offset, length});
  }
  EXPECT_TRUE(varint::GetU32(footer, &pos, &image.data_pages).ok());
  return image;
}

/// Replaces the footer page with `magic` + `version` + the given extents
/// (dir, table and, when `with_sidecar`, the sidecar), the data page count
/// and `table_crc`, sealed with a valid footer CRC.
void WriteFooter(const std::string& path, ImageBytes image,
                 const char* magic, uint32_t version, bool with_sidecar,
                 uint32_t table_crc) {
  std::string footer(magic, 8);
  varint::PutU32(&footer, version);
  for (int e = 0; e < (with_sidecar ? 3 : 2); ++e) {
    varint::PutU32(&footer, static_cast<uint32_t>(image.extents[3 * e]));
    varint::PutU32(&footer, static_cast<uint32_t>(image.extents[3 * e + 1]));
    varint::PutU64(&footer, image.extents[3 * e + 2]);
  }
  varint::PutU32(&footer, image.data_pages);
  ser::PutFixed32(&footer, table_crc);
  ser::PutFixed32(&footer, crc32c::Compute(footer));
  footer.resize(PageFile::kPageSize, '\0');
  image.bytes.replace(image.footer_offset(), PageFile::kPageSize, footer);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(image.bytes.data(),
            static_cast<std::streamsize>(image.bytes.size()));
}

uint32_t TableCrc(const ImageBytes& image) {
  size_t table_at = image.extents[3] * PageFile::kPageSize + image.extents[4];
  return crc32c::Compute(image.bytes.substr(table_at, image.extents[5]));
}

TEST(DiskIndexTest, RetiredFootersAndSidecarsAreCorruption) {
  XmlTree tree = MakeSmallCorpus();
  IndexBuilder builder(tree);
  JDeweyIndex jindex = builder.BuildJDeweyIndex();
  std::string path = TempPath("disk_index_retired");
  ASSERT_TRUE(DiskIndexWriter::Write(jindex, path).ok());
  const ImageBytes image = ReadImage(path);
  ASSERT_EQ(image.version, 3u);
  DiskIndexOptions options;
  options.retry_backoff_us = 0;

  auto expect_corruption = [&](const char* what) {
    auto env = DiskIndexEnv::Open(path, options);
    ASSERT_FALSE(env.ok()) << what;
    EXPECT_EQ(env.status().code(), StatusCode::kCorruption)
        << what << ": " << env.status().ToString();
  };

  {  // The unchecksummed layout: magic + directory extent only.
    ImageBytes v1 = image;
    std::string footer("XTKDISK1", 8);
    varint::PutU32(&footer, static_cast<uint32_t>(image.extents[0]));
    varint::PutU32(&footer, static_cast<uint32_t>(image.extents[1]));
    varint::PutU64(&footer, image.extents[2]);
    footer.resize(PageFile::kPageSize, '\0');
    v1.bytes.replace(v1.footer_offset(), PageFile::kPageSize, footer);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(v1.bytes.data(), static_cast<std::streamsize>(v1.bytes.size()));
  }
  expect_corruption("unchecksummed footer");

  // The checksummed layout without a sidecar: version 2, valid CRCs.
  WriteFooter(path, image, "XTKDISK2", 2, /*with_sidecar=*/false,
              TableCrc(image));
  expect_corruption("XTKDISK2 version-2 footer");

  {  // A sidecar whose flags lack the term dictionary, every CRC re-sealed.
    ImageBytes forged = image;
    size_t flags_at =
        image.extents[6] * PageFile::kPageSize + image.extents[7];
    ASSERT_NE(forged.bytes[flags_at] & 1, 0);
    forged.bytes[flags_at] = static_cast<char>(forged.bytes[flags_at] & ~1);
    const size_t page = image.extents[6];
    uint32_t page_crc = crc32c::Compute(
        forged.bytes.substr(page * PageFile::kPageSize, PageFile::kPageSize));
    size_t table_at =
        image.extents[3] * PageFile::kPageSize + image.extents[4];
    std::string entry;
    ser::PutFixed32(&entry, page_crc);
    forged.bytes.replace(table_at + 4 * page, 4, entry);
    WriteFooter(path, forged, "XTKDISK2", 3, /*with_sidecar=*/true,
                TableCrc(forged));
  }
  expect_corruption("sidecar without the dictionary flag");

  // Control: the untouched image re-sealed by the same helper opens.
  WriteFooter(path, image, "XTKDISK2", 3, /*with_sidecar=*/true,
              TableCrc(image));
  auto env = DiskIndexEnv::Open(path, options);
  EXPECT_TRUE(env.ok()) << env.status().ToString();
  std::remove(path.c_str());
  std::remove((path + ".manifest").c_str());
}

TEST(DiskIndexTest, MissingFileIsIoError) {
  auto disk = DiskJDeweyIndex::Open("/nonexistent/index.xtk");
  ASSERT_FALSE(disk.ok());
  EXPECT_EQ(disk.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace xtopk
