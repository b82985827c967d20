#include "obs/accounting.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/updatable_engine.h"
#include "obs/slow_log.h"
#include "storage/page_file.h"
#include "xml/xml_parser.h"

namespace xtopk {
namespace obs {
namespace {

TEST(AccountingTest, HooksAreNoOpsWithoutAScope) {
  ASSERT_EQ(CurrentAccounting(), nullptr);
  AccountPagesRead(3);  // must not crash or leak anywhere
  AccountCacheHit();
  EXPECT_EQ(CurrentAccounting(), nullptr);
}

TEST(AccountingTest, ScopeCollectsAndRestores) {
  ResourceAccounting outer, inner;
  {
    ScopedAccounting outer_scope(&outer);
    AccountPagesRead(2);
    {
      ScopedAccounting inner_scope(&inner);
      AccountPagesRead(5);
      AccountBytesDecoded(100);
      AccountCacheHit();
      AccountCacheMiss(3);
      AccountRowsJoined(7);
    }
    // Back to the outer sink after the inner scope closes.
    AccountPagesRead(1);
  }
  EXPECT_EQ(inner.pages_read, 5u);
  EXPECT_EQ(inner.bytes_decoded, 100u);
  EXPECT_EQ(inner.cache_hits, 1u);
  EXPECT_EQ(inner.cache_misses, 3u);
  EXPECT_EQ(inner.rows_joined, 7u);
  EXPECT_EQ(outer.pages_read, 3u);
  EXPECT_EQ(CurrentAccounting(), nullptr);
}

TEST(AccountingTest, ScopesAreThreadLocal) {
  ResourceAccounting main_acc;
  ScopedAccounting scope(&main_acc);
  std::thread other([] {
    // A fresh thread starts unattributed regardless of the spawner's scope.
    EXPECT_EQ(CurrentAccounting(), nullptr);
    AccountPagesRead(50);
  });
  other.join();
  EXPECT_EQ(main_acc.pages_read, 0u);
}

TEST(AccountingTest, JsonCarriesEveryField) {
  ResourceAccounting accounting;
  accounting.pages_read = 1;
  accounting.bytes_decoded = 2;
  accounting.cache_hits = 3;
  accounting.cache_misses = 4;
  accounting.rows_joined = 5;
  accounting.wall_us = 6.5;
  accounting.cpu_us = 7.25;
  accounting.planner_mode = "planned";
  std::string json = accounting.ToJson();
  EXPECT_NE(json.find("\"pages_read\":1"), std::string::npos);
  EXPECT_NE(json.find("\"bytes_decoded\":2"), std::string::npos);
  EXPECT_NE(json.find("\"cache_hits\":3"), std::string::npos);
  EXPECT_NE(json.find("\"cache_misses\":4"), std::string::npos);
  EXPECT_NE(json.find("\"rows_joined\":5"), std::string::npos);
  EXPECT_NE(json.find("\"wall_us\":6.500"), std::string::npos);
  EXPECT_NE(json.find("\"cpu_us\":7.250"), std::string::npos);
  EXPECT_NE(json.find("\"planner_mode\":\"planned\""), std::string::npos);
}

TEST(AccountingTest, ThreadCpuMicrosAdvances) {
  double start = ThreadCpuMicros();
  volatile uint64_t sink = 0;
  for (uint64_t i = 0; i < 2000000; ++i) sink += i;
  EXPECT_GE(ThreadCpuMicros(), start);
}

constexpr const char* kXml = R"(<root>
  <a>xml data management</a>
  <b><c>xml keyword search</c><d>top k data</d></b>
  <e>database systems</e>
</root>)";

TEST(AccountingTest, EngineQueryFillsAccounting) {
  XmlTree tree = ParseXmlStringOrDie(kXml);
  Engine engine(tree);
  ExplainResult result = engine.Explain({"xml", "data"});
  EXPECT_GT(result.accounting.wall_us, 0.0);
  EXPECT_GT(result.accounting.rows_joined, 0u);
  EXPECT_FALSE(result.accounting.planner_mode.empty());
  // The in-memory engine never touches the page layer.
  EXPECT_EQ(result.accounting.pages_read, 0u);

  std::vector<BatchQuery> queries(2);
  queries[0].keywords = {"xml"};
  queries[1].keywords = {"data"};
  queries[1].k = 1;
  auto results = engine.RunBatch(queries, /*threads=*/2);
  for (const auto& r : results) {
    EXPECT_GT(r.accounting.wall_us, 0.0);
    EXPECT_FALSE(r.accounting.planner_mode.empty());
  }
}

TEST(AccountingTest, ResultFingerprintIsStableAndDiscriminating) {
  XmlTree tree = ParseXmlStringOrDie(kXml);
  Engine engine(tree);
  auto a = engine.Search({"xml", "data"});
  auto b = engine.Search({"xml", "data"});
  EXPECT_EQ(ResultFingerprint(a), ResultFingerprint(b));
  auto c = engine.Search({"xml"});
  EXPECT_NE(ResultFingerprint(a), ResultFingerprint(c));
  EXPECT_EQ(ResultFingerprint({}), ResultFingerprint({}));
}

TEST(AccountingTest, ResultFingerprintFormatsScoresAsPrintfG9) {
  // The digest's bytes are "node:level:score;" with the score as %.9g, so
  // captures recorded by any build replay against any other.
  std::vector<QueryHit> hits;
  std::string blob;
  char buf[64];
  uint32_t node = 0;
  for (double score : {0.0, 1.0, 0.1, 1.0 / 3.0, 2.5e-7, 123456789.5,
                       1e21, 0.987654321987, 5e-324, -0.75}) {
    hits.push_back(QueryHit{node, node % 7 + 1, score, "", ""});
    std::snprintf(buf, sizeof(buf), "%u:%u:%.9g;", node, node % 7 + 1,
                  score);
    blob += buf;
    node = node * 31 + 4000000007u;
  }
  EXPECT_EQ(ResultFingerprint(hits), obs::FingerprintHex(blob));
}

TEST(AccountingTest, PageReadsAttributeToTheActiveScope) {
  std::string path = testing::TempDir() + "/accounting_pages.dat";
  PageFile file;
  ASSERT_TRUE(file.Open(path, /*create=*/true).ok());
  std::string page(PageFile::kPageSize, 'x');
  auto id = file.AppendPage(page);
  ASSERT_TRUE(id.ok());
  std::string out;
  ResourceAccounting accounting;
  {
    ScopedAccounting scope(&accounting);
    ASSERT_TRUE(file.ReadPage(*id, &out).ok());
    ASSERT_TRUE(file.ReadPage(*id, &out).ok());
  }
  ASSERT_TRUE(file.ReadPage(*id, &out).ok());  // outside: unattributed
  EXPECT_EQ(accounting.pages_read, 2u);
  (void)file.Close();
}

TEST(AccountingTest, UpdatableEngineTracksLastQuery) {
  XmlTree tree = ParseXmlStringOrDie(kXml);
  UpdatableEngine engine(std::move(tree));
  auto hits = engine.Search({"xml", "data"});
  EXPECT_FALSE(hits.empty());
  EXPECT_GT(engine.last_accounting().wall_us, 0.0);
  EXPECT_FALSE(engine.last_accounting().planner_mode.empty());
}

}  // namespace
}  // namespace obs
}  // namespace xtopk
