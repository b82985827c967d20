// End-to-end integration over the synthetic corpora (the same generators
// the benches use): every algorithm cross-checked on realistic shapes, the
// engine driven through the public facade, and persistence in the loop.

#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "baseline/indexed_lookup.h"
#include "baseline/naive.h"
#include "baseline/rdil.h"
#include "baseline/stack_search.h"
#include "core/engine.h"
#include "core/join_search.h"
#include "core/topk_search.h"
#include "index/disk_index.h"
#include "index/index_builder.h"
#include "workload/dblp_gen.h"
#include "workload/xmark_gen.h"

namespace xtopk {
namespace {

std::set<NodeId> Nodes(const std::vector<SearchResult>& results) {
  std::set<NodeId> out;
  for (const auto& r : results) out.insert(r.node);
  return out;
}

class DblpIntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DblpGenOptions gen;
    gen.num_conferences = 10;
    gen.years_per_conference = 5;
    gen.papers_per_year = 20;  // 1000 papers
    gen.planted = {
        {"needle", 40, "", 0.0},
        {"haystack", 400, "needle", 0.5},
        {"rare", 5, "", 0.0},
    };
    corpus_ = new DblpCorpus(GenerateDblp(gen));
    builder_ = new IndexBuilder(corpus_->tree);
  }
  static void TearDownTestSuite() {
    delete builder_;
    delete corpus_;
    builder_ = nullptr;
    corpus_ = nullptr;
  }

  static DblpCorpus* corpus_;
  static IndexBuilder* builder_;
};

DblpCorpus* DblpIntegrationTest::corpus_ = nullptr;
IndexBuilder* DblpIntegrationTest::builder_ = nullptr;

TEST_F(DblpIntegrationTest, AllAlgorithmsAgreeOnCompleteSets) {
  JDeweyIndex jindex = builder_->BuildJDeweyIndex();
  DeweyIndex dindex = builder_->BuildDeweyIndex();
  NaiveOracle oracle(corpus_->tree, dindex);
  const std::vector<std::vector<std::string>> queries = {
      {"needle", "haystack"},
      {"rare", "haystack"},
      {"needle", "haystack", "rare"},
      {"paper", "needle"},  // tag token + planted term
  };
  for (const auto& query : queries) {
    for (Semantics semantics : {Semantics::kElca, Semantics::kSlca}) {
      auto want = Nodes(oracle.Search(query, semantics));
      JoinSearchOptions join_options;
      join_options.semantics = semantics;
      JoinSearch join(jindex, join_options);
      EXPECT_EQ(Nodes(join.Search(query)), want);
      StackSearchOptions stack_options;
      stack_options.semantics = semantics;
      StackSearch stack(corpus_->tree, dindex, stack_options);
      EXPECT_EQ(Nodes(stack.Search(query)), want);
      IndexedLookupOptions lookup_options;
      lookup_options.semantics = semantics;
      IndexedLookupSearch lookup(corpus_->tree, dindex, lookup_options);
      EXPECT_EQ(Nodes(lookup.Search(query)), want);
    }
  }
}

TEST_F(DblpIntegrationTest, TopKAndRdilAgreeWithOracleOrder) {
  JDeweyIndex jindex = builder_->BuildJDeweyIndex();
  TopKIndex topk_index = builder_->BuildTopKIndex(jindex);
  DeweyIndex dindex = builder_->BuildDeweyIndex();
  RdilIndex rdil_index = builder_->BuildRdilIndex(dindex);
  NaiveOracle oracle(corpus_->tree, dindex);

  auto want = oracle.Search({"needle", "haystack"}, Semantics::kElca);
  SortByScoreDesc(&want);
  if (want.size() > 10) want.resize(10);

  TopKSearchOptions topk_options;
  topk_options.k = 10;
  TopKSearch topk(topk_index, topk_options);
  auto got_topk = topk.Search({"needle", "haystack"});

  RdilOptions rdil_options;
  rdil_options.k = 10;
  RdilSearch rdil(corpus_->tree, rdil_index, rdil_options);
  auto got_rdil = rdil.Search({"needle", "haystack"});

  ASSERT_EQ(got_topk.size(), want.size());
  ASSERT_EQ(got_rdil.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(got_topk[i].score, want[i].score, 1e-6) << i;
    EXPECT_NEAR(got_rdil[i].score, want[i].score, 1e-6) << i;
  }
}

TEST_F(DblpIntegrationTest, PersistedIndexAnswersIdentically) {
  JDeweyIndex jindex = builder_->BuildJDeweyIndex();
  std::string path = ::testing::TempDir() + "/integration_persisted";
  ASSERT_TRUE(DiskIndexWriter::Write(jindex, path).ok());
  auto disk = DiskJDeweyIndex::Open(path);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  JoinSearch a(jindex);
  auto ra = a.Search({"needle", "haystack"});
  auto rb = (*disk)->SearchComplete({"needle", "haystack"});
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  ASSERT_EQ(ra.size(), rb->size());
  for (size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].node, (*rb)[i].node);
    EXPECT_EQ(ra[i].score, (*rb)[i].score);
  }
  std::remove(path.c_str());
  std::remove((path + ".manifest").c_str());
}

TEST_F(DblpIntegrationTest, EngineFacadeMatchesDirectUse) {
  Engine engine(corpus_->tree);
  auto hits = engine.SearchTopK({"needle", "haystack"}, 5);
  auto all = engine.Search({"needle", "haystack"});
  ASSERT_LE(hits.size(), 5u);
  ASSERT_GE(all.size(), hits.size());
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].node, all[i].node);
    EXPECT_NEAR(hits[i].score, all[i].score, 1e-9);
  }
}

TEST(XmarkIntegrationTest, DeepCorpusCrossCheck) {
  XmarkGenOptions gen;
  gen.items_per_region = 60;
  gen.num_people = 150;
  gen.num_open_auctions = 80;
  gen.planted = {
      {"vintage", 60, "", 0.0},
      {"clock", 150, "vintage", 0.4},
  };
  XmarkCorpus corpus = GenerateXmark(gen);
  IndexBuilder builder(corpus.tree);
  JDeweyIndex jindex = builder.BuildJDeweyIndex();
  DeweyIndex dindex = builder.BuildDeweyIndex();
  NaiveOracle oracle(corpus.tree, dindex);
  TopKIndex topk_index = builder.BuildTopKIndex(jindex);

  for (Semantics semantics : {Semantics::kElca, Semantics::kSlca}) {
    auto want = oracle.Search({"vintage", "clock"}, semantics);
    JoinSearchOptions join_options;
    join_options.semantics = semantics;
    JoinSearch join(jindex, join_options);
    auto got = join.Search({"vintage", "clock"});
    EXPECT_EQ(Nodes(got), Nodes(want));

    // Occurrences span several levels in XMark (length-grouped segments
    // genuinely exercised).
    TopKSearchOptions topk_options;
    topk_options.semantics = semantics;
    topk_options.k = 7;
    TopKSearch topk(topk_index, topk_options);
    auto got_topk = topk.Search({"vintage", "clock"});
    SortByScoreDesc(&want);
    size_t expect = std::min<size_t>(7, want.size());
    ASSERT_EQ(got_topk.size(), expect);
    for (size_t i = 0; i < expect; ++i) {
      EXPECT_NEAR(got_topk[i].score, want[i].score, 1e-6) << i;
    }
  }
}

}  // namespace
}  // namespace xtopk
