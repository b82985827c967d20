// Snapshot isolation of SegmentSetVersion (index/segment_view.h): pinned
// queries are immune to concurrent publishes, superseded segment files
// survive exactly as long as the last pin, the version gauge tracks live
// snapshots, and readers on many threads share one SealedSetState and
// memtable entries while the writer extends the memtable and changes the
// sealed set under them.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/join_search.h"
#include "index/index_builder.h"
#include "index/segment.h"
#include "index/segment_builder.h"
#include "index/segment_view.h"
#include "obs/metrics.h"
#include "storage/segment_manifest.h"
#include "testing/corpus.h"
#include "xml/jdewey_builder.h"
#include "xml/xml_parser.h"

namespace xtopk {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name + "." +
         std::to_string(static_cast<long>(::getpid()));
}

constexpr char kXml[] =
    "<db>"
    "  <conf><paper><title>xml keyword search</title>"
    "    <author>ann</author></paper>"
    "  <paper><title>top k ranking for xml</title>"
    "    <author>bo</author></paper></conf>"
    "  <journal><article><title>xml databases</title>"
    "    <note>keyword ranking</note></article></journal>"
    "</db>";

bool FileExists(const std::string& path) {
  std::ifstream in(path);
  return in.good();
}

struct Fixture {
  XmlTree tree;
  IndexBuildOptions options;
  JDeweyEncoding enc;
  std::vector<std::string> paths;

  Fixture() : tree(ParseXmlStringOrDie(kXml)) {
    enc = JDeweyBuilder::Assign(tree, options.jdewey_gap);
  }

  /// Splits the nodes round-robin into `parts` on-disk segments and adds
  /// them to `segmented` with ids 1..parts.
  void AddDiskSegments(SegmentedIndex* segmented, size_t parts,
                       const std::string& tag) {
    std::vector<std::vector<NodeId>> groups(parts);
    for (NodeId id = 0; id < tree.node_count(); ++id) {
      groups[id % parts].push_back(id);
    }
    for (size_t i = 0; i < parts; ++i) {
      std::string path = TempPath(tag + "_seg" + std::to_string(i));
      JDeweyIndex segment = BuildSegmentIndex(tree, enc, groups[i], options);
      ASSERT_TRUE(
          DiskIndexWriter::Write(segment, path, {}, groups[i].size()).ok());
      ASSERT_TRUE(segmented->AddDiskSegment(path, {}, i + 1).ok());
      paths.push_back(path);
    }
  }
};

std::vector<SearchResult> RunQuery(
    const std::shared_ptr<const SegmentSetVersion>& version,
    const std::vector<std::string>& keywords) {
  SegmentSetReader reader(version);
  JoinSearchOptions options;
  options.compute_scores = true;
  JoinSearch search(&reader, options);
  return search.Search(keywords);
}

void ExpectSameResults(const std::vector<SearchResult>& got,
                       const std::vector<SearchResult>& want,
                       const std::string& ctx) {
  ASSERT_EQ(got.size(), want.size()) << ctx;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].node, want[i].node) << ctx << " i=" << i;
    EXPECT_EQ(got[i].level, want[i].level) << ctx << " i=" << i;
    // Bit identity, not approximate equality: compaction must not move a
    // single mantissa bit.
    EXPECT_EQ(got[i].score, want[i].score) << ctx << " i=" << i;
  }
}

TEST(SegmentVersionTest, PinnedVersionSurvivesCompactionBitIdentically) {
  Fixture fx;
  SegmentedIndex segmented;
  segmented.SetCorpusNodes(fx.tree.node_count());
  fx.AddDiskSegments(&segmented, 3, "pinbit");

  const std::vector<std::vector<std::string>> queries = {
      {"xml", "keyword"}, {"title", "ranking"}, {"xml", "ann"}};

  auto pinned = segmented.Pin();
  const uint64_t version_before = pinned->version();
  std::vector<std::vector<SearchResult>> before;
  for (const auto& q : queries) before.push_back(RunQuery(pinned, q));

  std::string compacted = TempPath("pinbit_out");
  ASSERT_TRUE(segmented.Compact(compacted).ok());
  EXPECT_EQ(segmented.sealed_count(), 1u);
  EXPECT_GT(segmented.version(), version_before);

  // The OLD pin still answers from the pre-compaction segments...
  EXPECT_EQ(pinned->version(), version_before);
  EXPECT_EQ(pinned->sealed().size(), 3u);
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectSameResults(RunQuery(pinned, queries[i]), before[i], "old pin");
  }
  // ...and the NEW version answers bit-identically through the merged
  // segment.
  auto fresh = segmented.Pin();
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectSameResults(RunQuery(fresh, queries[i]), before[i], "fresh pin");
  }

  pinned.reset();
  fresh.reset();
  std::remove(compacted.c_str());
  std::remove((compacted + ".manifest").c_str());
}

TEST(SegmentVersionTest, SupersededFilesDeletedWhenLastPinDrops) {
  Fixture fx;
  SegmentedIndex segmented;
  segmented.SetCorpusNodes(fx.tree.node_count());
  fx.AddDiskSegments(&segmented, 2, "epoch");

  auto pinned = segmented.Pin();  // holds the inputs alive
  std::string compacted = TempPath("epoch_out");
  ASSERT_TRUE(segmented.Compact(compacted).ok());

  // The publish superseded the inputs, but the pin still reads them: the
  // files must survive.
  for (const std::string& p : fx.paths) {
    EXPECT_TRUE(FileExists(p)) << p;
  }
  // A query through the old pin still works (would crash / corrupt on a
  // deleted mmap otherwise).
  EXPECT_FALSE(RunQuery(pinned, {"xml", "keyword"}).empty());

  // Epoch reclamation: the last pin dropping unlinks the superseded
  // files.
  pinned.reset();
  for (const std::string& p : fx.paths) {
    EXPECT_FALSE(FileExists(p)) << p;
    EXPECT_FALSE(FileExists(p + ".manifest")) << p;
  }
  // The compacted output is NOT superseded and stays.
  EXPECT_TRUE(FileExists(compacted));
  std::remove(compacted.c_str());
  std::remove((compacted + ".manifest").c_str());
}

TEST(SegmentVersionTest, VersionGaugeTracksLiveSnapshots) {
  auto& gauge =
      obs::MetricsRegistry::Global().GetGauge("index.segment_versions_live");
  Fixture fx;
  SegmentedIndex segmented;
  segmented.SetCorpusNodes(fx.tree.node_count());
  const int64_t base = gauge.value();  // the index's own head version

  auto pin_a = segmented.Pin();
  auto pin_b = segmented.Pin();
  // Both pins share the head version object — no new snapshots yet.
  EXPECT_EQ(gauge.value(), base);

  segmented.SetMemtable(std::make_shared<const Memtable>(),
                        fx.tree.node_count());  // publish: head replaced
  auto pin_c = segmented.Pin();
  // Old version still pinned by a/b + new head = one more live snapshot.
  EXPECT_EQ(gauge.value(), base + 1);

  pin_a.reset();
  EXPECT_EQ(gauge.value(), base + 1);  // b still holds the old version
  pin_b.reset();
  EXPECT_EQ(gauge.value(), base);  // old snapshot reclaimed
  pin_c.reset();
}

TEST(SegmentVersionTest, PublishCompactionAbortsWhenInputsChanged) {
  Fixture fx;
  SegmentedIndex segmented;
  segmented.SetCorpusNodes(fx.tree.node_count());
  fx.AddDiskSegments(&segmented, 2, "abort");

  auto pinned = segmented.Pin();
  std::vector<std::shared_ptr<const SealedSegment>> inputs(
      pinned->sealed().begin(), pinned->sealed().end());

  uint64_t covered = 0;
  auto merged = BuildCompactedSegment(inputs, &covered);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  auto output = SealedSegment::FromMemory(std::move(*merged), covered);

  // The set changes under the compactor's feet (a rebuild cleared it):
  // the publish must refuse rather than resurrect stale inputs.
  segmented.Clear();
  EXPECT_FALSE(segmented.PublishCompaction(inputs, output));
  EXPECT_EQ(segmented.sealed_count(), 0u);

  // On an unchanged set the publish succeeds and swaps atomically.
  SegmentedIndex second;
  second.SetCorpusNodes(fx.tree.node_count());
  Fixture fx2;
  fx2.AddDiskSegments(&second, 2, "abort2");
  auto pinned2 = second.Pin();
  std::vector<std::shared_ptr<const SealedSegment>> inputs2(
      pinned2->sealed().begin(), pinned2->sealed().end());
  uint64_t covered2 = 0;
  auto merged2 = BuildCompactedSegment(inputs2, &covered2);
  ASSERT_TRUE(merged2.ok());
  EXPECT_TRUE(second.PublishCompaction(
      inputs2, SealedSegment::FromMemory(std::move(*merged2), covered2)));
  EXPECT_EQ(second.sealed_count(), 1u);
}

TEST(SegmentVersionTest, ConcurrentReadersShareOneSealedSetState) {
  // A random corpus: the first half of the nodes sealed in two disk
  // segments, the rest arriving through a memtable the writer extends in
  // small stages, as durable refreshes do.
  const testing::CorpusSpec spec = testing::MakeCorpusSpec(7);
  const XmlTree tree = testing::MakeCorpusTree(spec);
  IndexBuildOptions options;
  const JDeweyEncoding enc = JDeweyBuilder::Assign(tree, options.jdewey_gap);
  const size_t n = tree.node_count();
  const size_t sealed_end = n / 2;

  std::vector<std::string> paths;
  for (size_t part = 0; part < 2; ++part) {
    std::vector<NodeId> nodes;
    for (size_t id = part * sealed_end / 2; id < (part + 1) * sealed_end / 2;
         ++id) {
      nodes.push_back(static_cast<NodeId>(id));
    }
    paths.push_back(TempPath("shared_state_seg" + std::to_string(part)));
    ASSERT_TRUE(DiskIndexWriter::Write(
                    BuildSegmentIndex(tree, enc, nodes, options),
                    paths.back(), {}, nodes.size())
                    .ok());
  }
  auto open_sealed = [&](SegmentedIndex* index) {
    index->SetCorpusNodes(n);
    for (size_t i = 0; i < paths.size(); ++i) {
      ASSERT_TRUE(index->AddDiskSegment(paths[i], {}, i + 1).ok());
    }
  };
  // Stage k's memtable indexes [sealed_end, stage_end(k)); stages are small
  // enough that some add no row of some term.
  constexpr size_t kStages = 16;
  auto stage_end = [&](size_t k) {
    return sealed_end + (n - sealed_end) * (k + 1) / kStages;
  };
  auto build = [&](size_t begin, size_t end) {
    std::vector<NodeId> nodes;
    for (size_t id = begin; id < end; ++id) {
      nodes.push_back(static_cast<NodeId>(id));
    }
    return BuildSegmentIndex(tree, enc, nodes, options);
  };
  std::vector<std::vector<std::string>> queries;
  std::set<std::string> query_terms;
  for (size_t i = 0; i + 1 < spec.terms.size() && queries.size() < 6; ++i) {
    queries.push_back({spec.terms[i], spec.terms[i + 1]});
    query_terms.insert(spec.terms[i]);
    query_terms.insert(spec.terms[i + 1]);
  }

  // Every stage's answers over a memtable built from scratch, from an
  // index no other thread touches.
  std::vector<std::vector<std::vector<SearchResult>>> expected(kStages);
  {
    SegmentedIndex reference;
    open_sealed(&reference);
    for (size_t k = 0; k < kStages; ++k) {
      reference.SetMemtable(
          Memtable::Extend(nullptr, build(sealed_end, stage_end(k)),
                           options.stats_buckets, *reference.Pin()->state()),
          n);
      for (const auto& q : queries) {
        expected[k].push_back(RunQuery(reference.Pin(), q));
      }
    }
  }

  // Which stage each published memtable is. A pinned memtable cannot die,
  // so its address cannot name another stage while a reader holds it.
  std::mutex stage_mu;
  std::map<const Memtable*, size_t> stage_of;

  SegmentedIndex live;
  open_sealed(&live);
  auto& merges =
      obs::MetricsRegistry::Global().GetCounter("index.sealed_list_merges");
  const int64_t merges_before = merges.value();
  auto publish_stage = [&](std::shared_ptr<const Memtable> memtable,
                           size_t k) {
    {
      std::lock_guard<std::mutex> lock(stage_mu);
      stage_of[memtable.get()] = k;
    }
    live.SetMemtable(std::move(memtable), n);
  };
  std::shared_ptr<const Memtable> memtable =
      Memtable::Extend(nullptr, build(sealed_end, stage_end(0)),
                       options.stats_buckets, *live.Pin()->state());
  publish_stage(memtable, 0);

  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};
  std::atomic<int> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      do {
        std::shared_ptr<const SegmentSetVersion> pin = live.Pin();
        size_t k = kStages;
        {
          std::lock_guard<std::mutex> lock(stage_mu);
          auto it = stage_of.find(pin->memtable());
          if (it != stage_of.end()) k = it->second;
        }
        if (k == kStages) {
          mismatches.fetch_add(1);
          continue;
        }
        for (size_t q = 0; q < queries.size(); ++q) {
          std::vector<SearchResult> got = RunQuery(pin, queries[q]);
          const std::vector<SearchResult>& want = expected[k][q];
          bool same = got.size() == want.size();
          for (size_t i = 0; same && i < got.size(); ++i) {
            same = got[i].node == want[i].node &&
                   got[i].level == want[i].level &&
                   got[i].score == want[i].score;
          }
          if (!same) mismatches.fetch_add(1);
        }
        reads.fetch_add(1);
      } while (!done.load());
    });
  }

  // The writer: each round rebuilds stage 0 and extends it stage by stage
  // while readers still hold the versions it extends; the memtable
  // publishes carry the sealed set's state along, and one compaction in
  // the middle starts a new one.
  const std::string compacted = TempPath("shared_state_out");
  const SealedSetState* first_state = live.Pin()->state().get();
  const SealedSetState* second_state = nullptr;
  bool carried = true;
  size_t shared_entries = 0;
  Status compact_status;
  for (size_t round = 0; round < 3; ++round) {
    for (size_t k = 0; k < kStages; ++k) {
      if (round == 1 && k == 0) {
        compact_status = live.Compact(compacted);
        second_state = live.Pin()->state().get();
      }
      std::shared_ptr<const Memtable> next =
          k == 0 ? Memtable::Extend(nullptr, build(sealed_end, stage_end(0)),
                                    options.stats_buckets,
                                    *live.Pin()->state())
                 : Memtable::Extend(memtable,
                                    build(stage_end(k - 1), stage_end(k)),
                                    options.stats_buckets,
                                    *live.Pin()->state());
      if (k > 0) {
        for (const auto& term : memtable->terms()) {
          if (next->Find(term->term) == term.get()) ++shared_entries;
        }
      }
      memtable = next;
      publish_stage(std::move(next), k);
      const SealedSetState* now = live.Pin()->state().get();
      carried = carried &&
                now == (second_state == nullptr ? first_state : second_state);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  done.store(true);
  for (std::thread& reader : readers) reader.join();

  ASSERT_TRUE(compact_status.ok()) << compact_status.ToString();
  EXPECT_EQ(live.sealed_count(), 1u);
  EXPECT_NE(second_state, first_state);
  EXPECT_TRUE(carried) << "a memtable publish replaced the sealed-set state";
  EXPECT_GT(shared_entries, 0u) << "no stage shared an untouched term";
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(reads.load(), 4);
  // Each (sealed set, term) merges at most once: two sealed sets here.
  EXPECT_GE(merges.value(), merges_before + 1);
  EXPECT_LE(merges.value(),
            merges_before + 2 * static_cast<int64_t>(query_terms.size()));

  for (const std::string& path : paths) {
    std::remove(path.c_str());
    std::remove((path + ".manifest").c_str());
  }
  std::remove(compacted.c_str());
  std::remove((compacted + ".manifest").c_str());
}

}  // namespace
}  // namespace xtopk
