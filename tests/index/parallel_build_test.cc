// ParallelFor, the work loop behind Engine::RunBatch, visits every index
// exactly once at any thread count.

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "util/parallel.h"

namespace xtopk {
namespace {

TEST(ParallelForTest, CoversEveryIndexOnce) {
  for (size_t threads : {1u, 2u, 7u}) {
    for (size_t n : {0u, 1u, 5u, 1000u}) {
      std::vector<std::atomic<int>> hits(n);
      for (auto& h : hits) h = 0;
      ParallelFor(n, threads, [&](size_t i) { ++hits[i]; });
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace xtopk
