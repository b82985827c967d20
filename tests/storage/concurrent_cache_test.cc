// Multi-threaded stress tests of the concurrent-serving substrate: the
// sharded BufferPool, the DecodedBlockCache, and disk-index sessions
// hammering both from 8 threads must return bit-identical results to a
// single-threaded run. Run under TSan in CI (the tsan job builds these).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/join_search.h"
#include "index/disk_index.h"
#include "index/index_builder.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/decoded_cache.h"
#include "storage/page_file.h"
#include "storage/sharded_lru.h"
#include "testing/corpus.h"

namespace xtopk {
namespace {

using testing::MakeRandomTree;

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

constexpr int kThreads = 8;

TEST(ShardedLruCacheTest, SingleShardLruSemantics) {
  ShardedLruCache<int, int> cache(/*capacity=*/2, /*shards=*/1);
  cache.Put(1, 10);
  cache.Put(2, 20);
  ASSERT_TRUE(cache.Get(1).has_value());  // refresh 1: now 2 is LRU
  cache.Put(3, 30);                       // evicts 2
  EXPECT_TRUE(cache.Get(1).has_value());
  EXPECT_FALSE(cache.Get(2).has_value());
  EXPECT_TRUE(cache.Get(3).has_value());
  EXPECT_EQ(cache.entry_count(), 2u);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 1u);
  cache.ResetStats();
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(ShardedLruCacheTest, ZeroCapacityDisablesCaching) {
  ShardedLruCache<int, int> cache(/*capacity=*/0, /*shards=*/4);
  cache.Put(1, 10);
  EXPECT_FALSE(cache.Get(1).has_value());
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ShardedLruCacheTest, CostBudgetRespectedUnderReplacement) {
  ShardedLruCache<int, int> cache(/*capacity=*/100, /*shards=*/1);
  cache.Put(1, 10, 60);
  cache.Put(1, 11, 30);  // replacement must not leak the old cost
  cache.Put(2, 20, 60);  // fits: 30 + 60 <= 100
  EXPECT_TRUE(cache.Get(1).has_value());
  EXPECT_TRUE(cache.Get(2).has_value());
  EXPECT_EQ(cache.cost_used(), 90u);
  cache.Put(3, 30, 200);  // exceeds the shard budget: not cached
  EXPECT_FALSE(cache.Get(3).has_value());
}

TEST(BufferPoolTest, ConcurrentGetPageIsCoherent) {
  // Write a file whose pages are self-describing, then read it back from
  // 8 threads through a small (eviction-heavy) sharded pool.
  std::string path = TempPath("concurrent_pool_pages");
  constexpr uint32_t kPages = 64;
  {
    PageFile file;
    ASSERT_TRUE(file.Open(path, /*create=*/true).ok());
    for (uint32_t p = 0; p < kPages; ++p) {
      std::string data = "page-" + std::to_string(p);
      ASSERT_TRUE(file.AppendPage(data).ok());
    }
    ASSERT_TRUE(file.Sync().ok());
    ASSERT_TRUE(file.Close().ok());
  }
  PageFile file;
  ASSERT_TRUE(file.Open(path, /*create=*/false).ok());
  BufferPool pool(&file, /*capacity_pages=*/16, /*shards=*/4);
  const uint64_t hits_before =
      obs::MetricsRegistry::Global().GetCounter("storage.pool.hits").value();
  const uint64_t misses_before =
      obs::MetricsRegistry::Global().GetCounter("storage.pool.misses").value();

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 400; ++i) {
        uint32_t id = static_cast<uint32_t>((i * 13 + t * 7) % kPages);
        auto page = pool.GetPage(id);
        if (!page.ok()) {
          ++mismatches;
          continue;
        }
        std::string want = "page-" + std::to_string(id);
        if ((*page)->compare(0, want.size(), want) != 0) ++mismatches;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  const uint64_t hits_after =
      obs::MetricsRegistry::Global().GetCounter("storage.pool.hits").value();
  const uint64_t misses_after =
      obs::MetricsRegistry::Global().GetCounter("storage.pool.misses").value();
  EXPECT_EQ((hits_after - hits_before) + (misses_after - misses_before),
            8u * 400u);
  EXPECT_LE(pool.cached_pages(), 16u);
  std::remove(path.c_str());
}

TEST(DecodedBlockCacheTest, EvictsAtSmallByteBudget) {
  // Columns of 100 runs cost ~100 * sizeof(Run) + overhead ≈ 1.3 KB; with
  // a 4 KB single-shard budget only ~2 fit, so inserting 8 must evict.
  DecodedBlockCache cache(/*byte_budget=*/4096, /*shards=*/1);
  auto make_column = [](uint32_t seed) {
    Column column;
    for (uint32_t i = 0; i < 100; ++i) {
      column.Append(i, seed + i);  // distinct values: one run each
    }
    return std::make_shared<const Column>(std::move(column));
  };
  for (uint32_t id = 0; id < 8; ++id) {
    cache.PutColumn(id, 1, make_column(id * 1000));
  }
  EXPECT_LE(cache.bytes_used(), 4096u);
  EXPECT_LT(cache.entry_count(), 8u);
  EXPECT_GE(cache.entry_count(), 1u);
  // LRU: the most recently inserted column survives, the first is gone.
  EXPECT_NE(cache.GetColumn(7, 1), nullptr);
  EXPECT_EQ(cache.GetColumn(0, 1), nullptr);
  // Survivors decode back bit-identically.
  auto survivor = cache.GetColumn(7, 1);
  ASSERT_NE(survivor, nullptr);
  EXPECT_EQ(survivor->runs().size(), 100u);
  EXPECT_EQ(survivor->runs()[0].value, 7000u);
}

TEST(DecodedBlockCacheTest, ZeroBudgetDisables) {
  DecodedBlockCache cache(/*byte_budget=*/0);
  EXPECT_FALSE(cache.enabled());
  Column column;
  column.Append(0, 42);
  cache.PutColumn(1, 1, std::make_shared<const Column>(std::move(column)));
  EXPECT_EQ(cache.GetColumn(1, 1), nullptr);
  EXPECT_EQ(cache.entry_count(), 0u);
}

TEST(DecodedBlockCacheTest, KeyKindsDoNotCollide) {
  DecodedBlockCache cache(/*byte_budget=*/1 << 20);
  Column column;
  column.Append(0, 7);
  cache.PutColumn(5, 1, std::make_shared<const Column>(std::move(column)));
  cache.PutLengths(5, std::make_shared<const std::vector<uint16_t>>(
                          std::vector<uint16_t>{1, 2, 3}));
  cache.PutScores(5, std::make_shared<const std::vector<float>>(
                         std::vector<float>{0.5f}));
  ASSERT_NE(cache.GetColumn(5, 1), nullptr);
  ASSERT_NE(cache.GetLengths(5), nullptr);
  ASSERT_NE(cache.GetScores(5), nullptr);
  EXPECT_EQ(cache.GetLengths(5)->size(), 3u);
  EXPECT_EQ(cache.GetScores(5)->size(), 1u);
  EXPECT_EQ(cache.GetColumn(6, 1), nullptr);
}

/// The tentpole stress test: 8 threads serve queries through fresh
/// disk-index sessions sharing one environment (sharded pool + decoded
/// cache), and every result must be bit-identical to the single-threaded
/// reference. A tiny pool and decoded budget force constant eviction and
/// re-decode races.
TEST(ConcurrentServingTest, EightThreadSessionsMatchSingleThreaded) {
  XmlTree tree = MakeRandomTree(77, 2000, 4, 8, {"alpha", "beta", "gamma"},
                                0.15);
  IndexBuildOptions build_options;
  build_options.index_tag_names = false;
  IndexBuilder builder(tree, build_options);
  JDeweyIndex jindex = builder.BuildJDeweyIndex();
  std::string path = TempPath("concurrent_serving_idx");
  ASSERT_TRUE(DiskIndexWriter::Write(jindex, path).ok());

  const std::vector<std::vector<std::string>> queries = {
      {"alpha", "beta"},
      {"beta", "gamma"},
      {"alpha", "beta", "gamma"},
  };

  // Single-threaded reference over the in-memory index.
  std::vector<std::vector<SearchResult>> want;
  for (const auto& query : queries) {
    JoinSearch search(jindex);
    want.push_back(search.Search(query));
  }

  DiskIndexOptions options;
  options.pool_pages = 8;              // eviction-heavy
  options.pool_shards = 4;
  options.decoded_cache_bytes = 8192;  // eviction-heavy
  auto env = DiskIndexEnv::Open(path, options);
  ASSERT_TRUE(env.ok()) << env.status().ToString();

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 25; ++i) {
        size_t q = static_cast<size_t>(t + i) % queries.size();
        auto session = (*env)->NewSession();
        auto got = session->SearchComplete(queries[q], JoinSearchOptions{});
        if (!got.ok() || got->size() != want[q].size()) {
          ++mismatches;
          continue;
        }
        for (size_t j = 0; j < want[q].size(); ++j) {
          if ((*got)[j].node != want[q][j].node ||
              (*got)[j].score != want[q][j].score) {
            ++mismatches;
            break;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);

  DiskIoStats stats = (*env)->io_stats();
  // The decoded cache must have been exercised from both sides.
  EXPECT_GT(stats.decoded_hits + stats.decoded_misses, 0u);
  EXPECT_GT(stats.pool_hits + stats.pool_misses, 0u);
  std::remove(path.c_str());
}

/// Same environment shared by long-lived per-worker sessions (the batch
/// driver shape) — also deterministic, and the decoded cache turns later
/// workers' materializations into hits.
TEST(ConcurrentServingTest, SharedCachesProduceHitsAcrossSessions) {
  XmlTree tree = MakeRandomTree(31, 1200, 4, 7, {"alpha", "beta"}, 0.2);
  IndexBuilder builder(tree);
  JDeweyIndex jindex = builder.BuildJDeweyIndex();
  std::string path = TempPath("shared_cache_idx");
  ASSERT_TRUE(DiskIndexWriter::Write(jindex, path).ok());

  DiskIndexOptions options;
  options.decoded_cache_bytes = 16u << 20;
  auto env = DiskIndexEnv::Open(path, options);
  ASSERT_TRUE(env.ok());

  // First session decodes everything; the second must hit for every block.
  auto first = (*env)->NewSession();
  ASSERT_TRUE(first->SearchComplete({"alpha", "beta"}).ok());
  DiskIoStats after_first = (*env)->io_stats();
  EXPECT_EQ(after_first.decoded_hits, 0u);
  EXPECT_GT(after_first.decoded_misses, 0u);

  auto second = (*env)->NewSession();
  ASSERT_TRUE(second->SearchComplete({"alpha", "beta"}).ok());
  DiskIoStats after_second = (*env)->io_stats();
  EXPECT_EQ(after_second.decoded_misses, after_first.decoded_misses);
  EXPECT_GT(after_second.decoded_hits, 0u);

  // And the sessions' results agree.
  auto a = first->SearchComplete({"alpha", "beta"});
  auto b = second->SearchComplete({"alpha", "beta"});
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].node, (*b)[i].node);
    EXPECT_EQ((*a)[i].score, (*b)[i].score);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace xtopk
