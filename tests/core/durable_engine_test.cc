// Durable segment lifecycle of UpdatableEngine (core/updatable_engine.h):
// reopen cycles resume the sealed set and the maintained encoding,
// compaction (foreground and background) never moves a result bit, and a
// FaultPlan sweep over every manifest-log append proves that a crash at
// ANY maintenance transition reopens to a consistent, orphan-free
// directory whose answers are bit-identical to an in-memory reference.

#include "core/updatable_engine.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "storage/manifest_log.h"
#include "util/crc32c.h"
#include "util/fault_env.h"
#include "xml/xml_tree.h"

namespace xtopk {
namespace {

std::string TestDir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "/durable_engine_" + tag + "." +
                    std::to_string(static_cast<long>(::getpid()));
  std::system(("rm -rf " + dir).c_str());
  return dir;
}

constexpr const char* kWords[] = {"xml",   "keyword", "search", "rank",
                                  "index", "query",   "dewey",  "join",
                                  "top",   "segment", "merge",  "log"};

std::string TextFor(size_t i) {
  return std::string(kWords[i % 12]) + " " + kWords[(i * 5 + 3) % 12];
}

/// The document after `adds` flat inserts (node i+1 is insert i). The
/// engine's AddElement is AddChild + AppendText, so building the same ops
/// directly on an XmlTree reproduces the engine's tree bit for bit —
/// which is exactly what a reopen does: the caller re-supplies the
/// document, the data directory supplies the index.
XmlTree TreeAfter(size_t adds, bool stale_append = false) {
  XmlTree tree;
  NodeId root = tree.CreateRoot("db");
  for (size_t i = 0; i < adds; ++i) {
    NodeId node = tree.AddChild(root, "p");
    tree.AppendText(node, TextFor(i));
  }
  if (stale_append && adds > 0) tree.AppendText(1, "stalemark");
  return tree;
}

void AddRange(UpdatableEngine* engine, size_t begin, size_t end) {
  for (size_t i = begin; i < end; ++i) {
    engine->AddElement(engine->tree().root(), "p", TextFor(i));
  }
}

const std::vector<std::vector<std::string>> kQueries = {
    {"xml", "keyword"}, {"rank", "join"},  {"segment", "merge"},
    {"dewey", "index"}, {"top", "query"},  {"search", "log"}};

std::vector<std::vector<QueryHit>> RunAllQueries(UpdatableEngine* engine) {
  std::vector<std::vector<QueryHit>> out;
  for (const auto& q : kQueries) out.push_back(engine->SearchTopK(q, 10));
  return out;
}

void ExpectSameHits(const std::vector<std::vector<QueryHit>>& got,
                    const std::vector<std::vector<QueryHit>>& want,
                    const std::string& ctx) {
  ASSERT_EQ(got.size(), want.size()) << ctx;
  for (size_t q = 0; q < want.size(); ++q) {
    ASSERT_EQ(got[q].size(), want[q].size()) << ctx << " query " << q;
    for (size_t i = 0; i < want[q].size(); ++i) {
      EXPECT_EQ(got[q][i].node, want[q][i].node)
          << ctx << " query " << q << " i=" << i;
      EXPECT_EQ(got[q][i].level, want[q][i].level)
          << ctx << " query " << q << " i=" << i;
      // Bit identity: segmentation, compaction, and reopen must not move
      // a single mantissa bit of any score.
      EXPECT_EQ(got[q][i].score, want[q][i].score)
          << ctx << " query " << q << " i=" << i;
    }
  }
}

std::unique_ptr<UpdatableEngine> OpenOrDie(const std::string& dir,
                                           XmlTree tree,
                                           bool auto_compact = false) {
  DurableOptions durable;
  durable.data_dir = dir;
  durable.auto_compact = auto_compact;
  durable.compaction.max_segments = 2;
  auto opened = UpdatableEngine::OpenDurable(std::move(tree), {}, durable);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return std::move(opened).value();
}

TEST(DurableEngineTest, ReopenResumesSealedSetAndEncoding) {
  const std::string dir = TestDir("reopen");

  std::vector<std::vector<QueryHit>> before;
  size_t segments_before = 0;
  {
    auto engine = OpenOrDie(dir, TreeAfter(0));
    AddRange(engine.get(), 0, 12);
    ASSERT_TRUE(engine->SealMemtable().ok());
    AddRange(engine.get(), 12, 24);
    ASSERT_TRUE(engine->SealMemtable().ok());
    AddRange(engine.get(), 24, 30);  // unsealed memtable tail
    before = RunAllQueries(engine.get());
    segments_before = engine->segment_count();
    EXPECT_EQ(segments_before, 2u);
    EXPECT_EQ(engine->rebuilds(), 0u);
  }

  // Reopen: the caller re-supplies the document, the directory supplies
  // the sealed set. The unsealed tail (nodes past the recovered
  // watermark) becomes the memtable again — nothing is rebuilt.
  auto engine = OpenOrDie(dir, TreeAfter(30));
  EXPECT_EQ(engine->segment_count(), segments_before);
  EXPECT_EQ(engine->rebuilds(), 0u);
  ASSERT_TRUE(engine->ValidateEncoding().ok());
  ExpectSameHits(RunAllQueries(engine.get()), before, "after reopen");

  // The resumed engine keeps working: more appends, another seal, another
  // reopen.
  AddRange(engine.get(), 30, 36);
  ASSERT_TRUE(engine->SealMemtable().ok());
  auto after_growth = RunAllQueries(engine.get());
  engine.reset();
  auto engine2 = OpenOrDie(dir, TreeAfter(36));
  EXPECT_EQ(engine2->rebuilds(), 0u);
  ExpectSameHits(RunAllQueries(engine2.get()), after_growth,
                 "after second reopen");
  engine2.reset();
  std::system(("rm -rf " + dir).c_str());
}

TEST(DurableEngineTest, RetiredManifestVersionFailsOpenTyped) {
  // A data directory whose segment manifests carry an earlier version's
  // magic (checksum intact) was written by an older on-disk format: the
  // reopen must report it as kCorruption instead of serving from it or
  // silently re-sealing over it.
  const std::string dir = TestDir("retired_manifest");
  {
    auto engine = OpenOrDie(dir, TreeAfter(0));
    AddRange(engine.get(), 0, 12);
    ASSERT_TRUE(engine->SealMemtable().ok());
  }
  size_t rewritten = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string path = entry.path().string();
    if (entry.path().extension() != ".manifest") continue;
    std::string bytes;
    {
      std::ifstream in(path, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    ASSERT_GT(bytes.size(), 12u);
    ASSERT_EQ(bytes[7], '3') << path;
    bytes[7] = '2';
    bytes.resize(bytes.size() - 4);
    const uint32_t crc = crc32c::Compute(bytes);
    for (int i = 0; i < 4; ++i) {
      bytes.push_back(static_cast<char>(crc >> (8 * i)));
    }
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ++rewritten;
  }
  ASSERT_GT(rewritten, 0u);

  DurableOptions durable;
  durable.data_dir = dir;
  auto opened = UpdatableEngine::OpenDurable(TreeAfter(12), {}, durable);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption)
      << opened.status().ToString();
  std::system(("rm -rf " + dir).c_str());
}

TEST(DurableEngineTest, CompactIsBitIdenticalAndCounted) {
  const std::string dir = TestDir("compact");
  auto engine = OpenOrDie(dir, TreeAfter(0));
  for (size_t batch = 0; batch < 3; ++batch) {
    AddRange(engine.get(), batch * 10, batch * 10 + 10);
    ASSERT_TRUE(engine->SealMemtable().ok());
  }
  EXPECT_EQ(engine->segment_count(), 3u);
  auto before = RunAllQueries(engine.get());

  auto& runs = obs::MetricsRegistry::Global().GetCounter(
      "index.compaction.runs");
  auto& bytes_in = obs::MetricsRegistry::Global().GetCounter(
      "index.compaction.bytes_in");
  const int64_t runs_before = runs.value();
  const int64_t bytes_in_before = bytes_in.value();

  ASSERT_TRUE(engine->Compact().ok());
  EXPECT_EQ(engine->segment_count(), 1u);
  ExpectSameHits(RunAllQueries(engine.get()), before, "after compact");
  EXPECT_EQ(runs.value(), runs_before + 1);
  EXPECT_GT(bytes_in.value(), bytes_in_before);

  // The compacted set survives a reopen too.
  engine.reset();
  engine = OpenOrDie(dir, TreeAfter(30));
  EXPECT_EQ(engine->segment_count(), 1u);
  ExpectSameHits(RunAllQueries(engine.get()), before, "reopen of compacted");
  engine.reset();
  std::system(("rm -rf " + dir).c_str());
}

TEST(DurableEngineTest, CompactReportsAFailedLogAppend) {
  const std::string dir = TestDir("compact_fault");
  auto engine = OpenOrDie(dir, TreeAfter(0));
  for (size_t batch = 0; batch < 2; ++batch) {
    AddRange(engine.get(), batch * 10, batch * 10 + 10);
    ASSERT_TRUE(engine->SealMemtable().ok());
  }
  ASSERT_EQ(engine->segment_count(), 2u);
  auto before = RunAllQueries(engine.get());

  // Compact's first log append is its round's kCompactBegin record.
  auto& injector = FaultInjector::Global();
  FaultPlan plan;
  plan.kind = FaultKind::kTransientIoError;
  plan.site = "manifestlog.append";
  plan.trigger = 0;
  injector.SetPlan(plan);
  const Status failed = engine->Compact();
  const uint64_t appends = injector.CallCount("manifestlog.append");
  injector.Clear();
  EXPECT_EQ(failed.code(), StatusCode::kIoError) << failed.ToString();
  EXPECT_EQ(appends, 1u);
  EXPECT_EQ(engine->segment_count(), 2u);
  ExpectSameHits(RunAllQueries(engine.get()), before, "failed compact");

  // Unarmed, the same call merges; then nothing is left to merge, which
  // is Ok too.
  ASSERT_TRUE(engine->Compact().ok());
  EXPECT_EQ(engine->segment_count(), 1u);
  EXPECT_TRUE(engine->Compact().ok());
  ExpectSameHits(RunAllQueries(engine.get()), before, "after compact");
  engine.reset();
  std::system(("rm -rf " + dir).c_str());
}

TEST(DurableEngineTest, SealedListsMergeOncePerSealedSet) {
  const std::string dir = TestDir("sealed_merges");
  auto engine = OpenOrDie(dir, TreeAfter(0));
  AddRange(engine.get(), 0, 12);
  ASSERT_TRUE(engine->SealMemtable().ok());
  AddRange(engine.get(), 12, 24);
  ASSERT_TRUE(engine->SealMemtable().ok());
  auto& merges = obs::MetricsRegistry::Global().GetCounter(
      "index.sealed_list_merges");
  const int64_t start = merges.value();

  // Every read follows an ingest, so each runs on a new version — over
  // the same sealed set, whose merged list of the term is reused.
  const uint64_t version = engine->plan_watermark();
  for (size_t i = 0; i < 5; ++i) {
    AddRange(engine.get(), 24 + i, 25 + i);
    EXPECT_FALSE(engine->Search({"xml"}).empty());
  }
  EXPECT_EQ(engine->plan_watermark(), version + 5);
  EXPECT_EQ(merges.value(), start + 1);

  // A seal starts a new sealed set: the term merges once more, then is
  // reused again.
  ASSERT_TRUE(engine->SealMemtable().ok());
  EXPECT_FALSE(engine->Search({"xml"}).empty());
  EXPECT_EQ(merges.value(), start + 2);
  for (size_t i = 0; i < 3; ++i) {
    AddRange(engine.get(), 29 + i, 30 + i);
    EXPECT_FALSE(engine->Search({"xml"}).empty());
  }
  EXPECT_EQ(merges.value(), start + 2);
  engine.reset();
  std::system(("rm -rf " + dir).c_str());
}

TEST(DurableEngineTest, BackgroundCompactionConvergesUnderQueries) {
  const std::string dir = TestDir("bg");
  auto engine = OpenOrDie(dir, TreeAfter(0), /*auto_compact=*/true);
  ASSERT_NE(engine->scheduler(), nullptr);

  std::vector<std::vector<QueryHit>> expected;
  for (size_t batch = 0; batch < 6; ++batch) {
    AddRange(engine.get(), batch * 8, batch * 8 + 8);
    ASSERT_TRUE(engine->SealMemtable().ok());
    if (batch == 5) expected = RunAllQueries(engine.get());
  }
  // The scheduler was notified on every seal; with max_segments = 2 it
  // must merge the pile down. Poll — the thread is deliberately nice(19).
  // Poll rounds() too: it is bumped after a round's publish, so a
  // converged count can be observed before the counter moves.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((engine->segment_count() > 2 || engine->scheduler()->rounds() < 1) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_LE(engine->segment_count(), 2u);
  EXPECT_GE(engine->scheduler()->rounds(), 1u);
  ExpectSameHits(RunAllQueries(engine.get()), expected,
                 "after background compaction");
  engine.reset();
  std::system(("rm -rf " + dir).c_str());
}

TEST(DurableEngineTest, DisableEnvKeepsBackgroundThreadOff) {
  ::setenv("XTOPK_DISABLE_BG_COMPACT", "1", 1);
  const std::string dir = TestDir("disable");
  auto engine = OpenOrDie(dir, TreeAfter(0), /*auto_compact=*/true);
  ASSERT_NE(engine->scheduler(), nullptr);
  EXPECT_FALSE(engine->scheduler()->running());
  engine->scheduler()->Start();  // still a no-op under the kill switch
  EXPECT_FALSE(engine->scheduler()->running());
  ::unsetenv("XTOPK_DISABLE_BG_COMPACT");
  engine.reset();
  std::system(("rm -rf " + dir).c_str());
}

/// One scripted durable run: two seals, a full compaction, then a
/// below-watermark text append + query (the durable FULL REBUILD path —
/// its commit record carries a watermark). Every Status is deliberately
/// ignored: with a fault armed this models the process continuing after
/// an I/O error, and an OpenDurable failure models a crash during
/// recovery itself.
void RunScript(const std::string& dir) {
  DurableOptions durable;
  durable.data_dir = dir;
  durable.auto_compact = false;
  auto opened = UpdatableEngine::OpenDurable(TreeAfter(0), {}, durable);
  if (!opened.ok()) return;
  auto engine = std::move(opened).value();
  AddRange(engine.get(), 0, 8);
  (void)engine->SealMemtable();
  AddRange(engine.get(), 8, 16);
  (void)engine->SealMemtable();
  (void)engine->Compact();
  engine->AppendText(1, "stalemark");  // sealed node: forces durable rebuild
  engine->SearchTopK(kQueries[0], 10);
}

TEST(DurableEngineTest, ManifestAppendFaultSweepReopensConsistent) {
  // The reference: the same final document served by a plain in-memory
  // engine. Scoring is segmentation-invariant by design, so EVERY
  // recovered state — whatever prefix of the maintenance history survived
  // the injected crash — must answer bit-identically to this.
  UpdatableEngine reference(TreeAfter(16, /*stale_append=*/true));
  const auto expected = RunAllQueries(&reference);

  // Measure the sweep range: how many log appends the clean script makes.
  auto& injector = FaultInjector::Global();
  {
    FaultPlan observe;
    observe.kind = FaultKind::kNone;
    observe.site = "manifestlog.append";
    injector.SetPlan(observe);
    const std::string dir = TestDir("sweep_observe");
    RunScript(dir);
    std::system(("rm -rf " + dir).c_str());
  }
  const uint64_t appends = injector.CallCount("manifestlog.append");
  injector.Clear();
  ASSERT_GE(appends, 8u) << "script no longer exercises the log";

  const FaultKind kinds[] = {FaultKind::kTruncate, FaultKind::kBitFlip,
                             FaultKind::kTransientIoError};
  for (FaultKind kind : kinds) {
    for (uint64_t trigger = 0; trigger < appends; ++trigger) {
      SCOPED_TRACE(std::string(FaultKindName(kind)) + " trigger=" +
                   std::to_string(trigger));
      const std::string dir = TestDir("sweep");
      FaultPlan plan;
      plan.kind = kind;
      plan.site = "manifestlog.append";
      plan.trigger = trigger;
      plan.seed = trigger + 1;
      injector.SetPlan(plan);
      RunScript(dir);
      injector.Clear();

      // Reopen the crashed directory with the surviving document.
      // Whatever maintenance prefix the log kept, recovery must yield a
      // consistent set and the answers must not change.
      auto reopened = OpenOrDie(dir, TreeAfter(16, /*stale_append=*/true));
      ASSERT_NE(reopened, nullptr);
      ExpectSameHits(RunAllQueries(reopened.get()), expected, "reopened");
      reopened.reset();

      // Zero-orphan proof: recovery already deleted everything the log
      // does not vouch for, so a second recovery finds nothing to remove.
      auto again = RecoverSegmentSet(dir);
      ASSERT_TRUE(again.ok()) << again.status().ToString();
      EXPECT_TRUE(again->removed_files.empty())
          << "orphan left behind: " << again->removed_files[0];
      std::system(("rm -rf " + dir).c_str());
    }
  }
}

}  // namespace
}  // namespace xtopk
