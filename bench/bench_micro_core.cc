// Micro-benchmarks of the substrate operations every query touches: the
// two join operators, JDewey LCA, B+-tree probes, interval-set pruning,
// and the score-segment heap. Not a paper figure — regression guardrails
// for the operators the figure benches are built from.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "btree/btree.h"
#include "core/engine.h"
#include "core/join_ops.h"
#include "index/disk_index.h"
#include "index/index_builder.h"
#include "obs/slow_log.h"
#include "util/interval_set.h"
#include "util/rng.h"
#include "xml/jdewey.h"
#include "xml/xml_tree.h"

namespace {

xtopk::Column MakeColumn(uint64_t seed, uint32_t values, double keep) {
  xtopk::Rng rng(seed);
  xtopk::Column col;
  uint32_t row = 0;
  for (uint32_t v = 1; v <= values; ++v) {
    if (rng.NextBernoulli(keep)) col.Append(row++, v);
  }
  return col;
}

void BM_MergeJoin(benchmark::State& state) {
  xtopk::Column a = MakeColumn(1, 100000, 0.5);
  xtopk::Column b = MakeColumn(2, 100000, 0.5);
  for (auto _ : state) {
    xtopk::JoinOpStats stats;
    auto out = xtopk::MergeIntersect(xtopk::SeedMatches(a), b, &stats);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          (a.run_count() + b.run_count()));
}
BENCHMARK(BM_MergeJoin);

void BM_MergeJoinSkewed(benchmark::State& state) {
  // 1:50 size skew — the regime the planner hands to galloping.
  xtopk::Column small = MakeColumn(8, 100000, 0.02);  // ~2k runs
  xtopk::Column big = MakeColumn(9, 100000, 0.9);
  for (auto _ : state) {
    xtopk::JoinOpStats stats;
    auto out = xtopk::MergeIntersect(xtopk::SeedMatches(small), big, &stats);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          (small.run_count() + big.run_count()));
}
BENCHMARK(BM_MergeJoinSkewed);

void BM_GallopJoinSkewed(benchmark::State& state) {
  xtopk::Column small = MakeColumn(8, 100000, 0.02);
  xtopk::Column big = MakeColumn(9, 100000, 0.9);
  for (auto _ : state) {
    xtopk::JoinOpStats stats;
    auto out = xtopk::GallopIntersect(xtopk::SeedMatches(small), big, &stats);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          (small.run_count() + big.run_count()));
}
BENCHMARK(BM_GallopJoinSkewed);

void BM_GallopJoinBalanced(benchmark::State& state) {
  // Balanced inputs — the regime where galloping should roughly tie merge,
  // guarding the planner's gallop_ratio cutoff from below.
  xtopk::Column a = MakeColumn(1, 100000, 0.5);
  xtopk::Column b = MakeColumn(2, 100000, 0.5);
  for (auto _ : state) {
    xtopk::JoinOpStats stats;
    auto out = xtopk::GallopIntersect(xtopk::SeedMatches(a), b, &stats);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          (a.run_count() + b.run_count()));
}
BENCHMARK(BM_GallopJoinBalanced);

void BM_IndexJoinSmallProbe(benchmark::State& state) {
  xtopk::Column small = MakeColumn(3, 100000, 0.002);  // ~200 runs
  xtopk::Column big = MakeColumn(4, 100000, 0.9);
  for (auto _ : state) {
    xtopk::JoinOpStats stats;
    auto out = xtopk::IndexIntersect(xtopk::SeedMatches(small), big, &stats);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * small.run_count());
}
BENCHMARK(BM_IndexJoinSmallProbe);

void BM_JDeweyLca(benchmark::State& state) {
  xtopk::Rng rng(5);
  std::vector<xtopk::JDeweySeq> seqs;
  for (int i = 0; i < 1024; ++i) {
    xtopk::JDeweySeq seq = {1};
    uint32_t len = 2 + static_cast<uint32_t>(rng.NextBounded(10));
    for (uint32_t l = 1; l < len; ++l) {
      seq.push_back(seq.back() * 3 + static_cast<uint32_t>(
                                         rng.NextBounded(3)));
    }
    seqs.push_back(std::move(seq));
  }
  size_t i = 0;
  for (auto _ : state) {
    auto lca = xtopk::JDeweyLca(seqs[i & 1023], seqs[(i * 7 + 3) & 1023]);
    benchmark::DoNotOptimize(lca);
    ++i;
  }
}
BENCHMARK(BM_JDeweyLca);

void BM_BTreeLowerBound(benchmark::State& state) {
  xtopk::BTree tree(128);
  xtopk::Rng rng(6);
  for (int i = 0; i < 100000; ++i) {
    char key[8];
    uint64_t v = rng.NextU64();
    std::memcpy(key, &v, 8);
    tree.Insert(std::string_view(key, 8), i);
  }
  for (auto _ : state) {
    char key[8];
    uint64_t v = rng.NextU64();
    std::memcpy(key, &v, 8);
    auto it = tree.LowerBound(std::string_view(key, 8));
    benchmark::DoNotOptimize(it.Valid());
  }
}
BENCHMARK(BM_BTreeLowerBound);

void BM_IntervalSetPruning(benchmark::State& state) {
  // The range-checking access pattern of Algorithm 1: per level, ascending
  // disjoint runs are checked or erased, then the level's erasures merge.
  xtopk::Rng rng(7);
  for (auto _ : state) {
    xtopk::IntervalSet set;
    for (int level = 0; level < 10; ++level) {
      uint32_t cursor = 0;
      for (int i = 0; i < 100; ++i) {
        uint32_t a = cursor + static_cast<uint32_t>(rng.NextBounded(1024));
        uint32_t b = a + 1 + static_cast<uint32_t>(rng.NextBounded(512));
        if (rng.NextBernoulli(0.5)) {
          set.Add(a, b);
        } else {
          benchmark::DoNotOptimize(set.CountOverlap(a, b));
        }
        cursor = b;
      }
      set.Commit();
    }
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_IntervalSetPruning);

/// One disk image, shared by the full-decode benchmark below. The tree is
/// big enough that the image spans many pages, so the per-page CRC
/// actually runs (it fires once per physical read).
struct DiskBenchFixture {
  std::vector<std::string> terms = {"alpha", "beta", "gamma", "delta"};
  std::string path;

  DiskBenchFixture() {
    xtopk::Rng rng(11);
    xtopk::XmlTree tree;
    tree.CreateRoot("r");
    std::vector<xtopk::NodeId> frontier = {tree.root()};
    while (tree.node_count() < 20000 && !frontier.empty()) {
      size_t pick = rng.NextBounded(frontier.size());
      xtopk::NodeId parent = frontier[pick];
      if (tree.level(parent) >= 12) {
        frontier.erase(frontier.begin() + static_cast<ptrdiff_t>(pick));
        continue;
      }
      xtopk::NodeId child = tree.AddChild(parent, "n");
      frontier.push_back(child);
      for (const std::string& term : terms) {
        if (rng.NextBernoulli(0.2)) tree.AppendText(child, term);
      }
      if (rng.NextBernoulli(0.2) || tree.Children(parent).size() >= 6) {
        frontier.erase(frontier.begin() + static_cast<ptrdiff_t>(pick));
      }
    }
    xtopk::IndexBuildOptions build_options;
    build_options.index_tag_names = false;
    xtopk::IndexBuilder builder(tree, build_options);
    xtopk::JDeweyIndex jindex = builder.BuildJDeweyIndex();
    std::string base =
        "/tmp/bench_micro_core_" + std::to_string(::getpid());
    path = base + ".seg";
    xtopk::DiskIndexWriter::Write(jindex, path).ok();
  }
  ~DiskBenchFixture() {
    std::remove(path.c_str());
    std::remove((path + ".manifest").c_str());
  }
};

const DiskBenchFixture& DiskFixture() {
  static DiskBenchFixture fixture;
  return fixture;
}

/// Full decode of every term's list from a cold environment — the worst
/// case for checksum overhead, since every page read is physical and gets
/// verified.
void BM_DiskFullDecodeChecksummed(benchmark::State& state) {
  const DiskBenchFixture& fixture = DiskFixture();
  uint64_t rows = 0;
  for (auto _ : state) {
    xtopk::DiskIndexOptions options;
    options.decoded_cache_bytes = 0;  // force a real decode every time
    auto env = xtopk::DiskIndexEnv::Open(fixture.path, options);
    auto session = (*env)->NewSession();
    for (const std::string& term : fixture.terms) {
      auto list = session->LoadList(term, session->MaxLength(term));
      benchmark::DoNotOptimize(list);
      if (list.ok() && *list != nullptr) rows += (*list)->num_rows();
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(rows));
}
BENCHMARK(BM_DiskFullDecodeChecksummed);

/// In-memory engine + query batch for the telemetry overhead pair. The
/// queries pair a rare term with common ones: join work stays large (long
/// common lists) while result sets stay small — the realistic slow-query
/// shape, and the regime where capture cost is pure per-query overhead
/// rather than being smuggled into per-hit fingerprinting.
struct TelemetryBenchFixture {
  xtopk::XmlTree tree;
  std::unique_ptr<xtopk::Engine> engine;
  std::vector<xtopk::BatchQuery> batch;

  TelemetryBenchFixture() {
    const std::vector<std::string> common = {"alpha", "beta", "gamma",
                                             "delta"};
    xtopk::Rng rng(13);
    tree.CreateRoot("r");
    std::vector<xtopk::NodeId> frontier = {tree.root()};
    while (tree.node_count() < 20000 && !frontier.empty()) {
      size_t pick = rng.NextBounded(frontier.size());
      xtopk::NodeId parent = frontier[pick];
      if (tree.level(parent) >= 12) {
        frontier.erase(frontier.begin() + static_cast<ptrdiff_t>(pick));
        continue;
      }
      xtopk::NodeId child = tree.AddChild(parent, "n");
      frontier.push_back(child);
      for (const std::string& term : common) {
        if (rng.NextBernoulli(0.2)) tree.AppendText(child, term);
      }
      for (int i = 0; i < 4; ++i) {
        if (rng.NextBernoulli(0.002)) {
          tree.AppendText(child, "rare" + std::to_string(i));
        }
      }
      if (rng.NextBernoulli(0.2) || tree.Children(parent).size() >= 6) {
        frontier.erase(frontier.begin() + static_cast<ptrdiff_t>(pick));
      }
    }
    engine = std::make_unique<xtopk::Engine>(tree);
    auto add = [this](std::vector<std::string> keywords, size_t k) {
      xtopk::BatchQuery query;
      query.keywords = std::move(keywords);
      query.k = k;
      batch.push_back(std::move(query));
    };
    add({"rare0", "alpha"}, 0);
    add({"rare1", "beta"}, 10);
    add({"rare2", "gamma", "delta"}, 5);
    add({"rare3", "delta"}, 0);
  }
};

const TelemetryBenchFixture& TelemetryFixture() {
  static TelemetryBenchFixture fixture;
  return fixture;
}

/// Telemetry overhead pair. Idle = telemetry compiled in but quiescent
/// (accounting hooks + windowed records run, slow log at its default
/// 100ms threshold never fires). Armed = slow-query capture-all into the
/// in-memory ring, so every query additionally pays fingerprinting, JSON
/// serialization, and the ring push. CI perf-smoke gates armed/idle at
/// the PR 2 noise budget (<= 2%).
void EngineBatchTelemetry(benchmark::State& state, bool armed) {
  const TelemetryBenchFixture& fixture = TelemetryFixture();
  auto& slow_log = xtopk::obs::SlowQueryLog::Global();
  if (armed) {
    xtopk::obs::SlowLogOptions options;  // no path: memory ring only
    options.latency_threshold_us = 0;    // capture every query
    options.memory_entries = 64;
    slow_log.Reconfigure(options);
  }
  uint64_t hits = 0;
  for (auto _ : state) {
    auto results = fixture.engine->RunBatch(fixture.batch, 1);
    for (const auto& result : results) hits += result.hits.size();
  }
  benchmark::DoNotOptimize(hits);
  if (armed) slow_log.Reconfigure(xtopk::obs::SlowLogOptions::FromEnv());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fixture.batch.size()));
}

void BM_EngineBatchTelemetryIdle(benchmark::State& state) {
  EngineBatchTelemetry(state, /*armed=*/false);
}
BENCHMARK(BM_EngineBatchTelemetryIdle);

void BM_EngineBatchTelemetryArmed(benchmark::State& state) {
  EngineBatchTelemetry(state, /*armed=*/true);
}
BENCHMARK(BM_EngineBatchTelemetryArmed);

}  // namespace

BENCHMARK_MAIN();
