// Fault-injection sweep over the storage stack (DESIGN.md §9): every
// deterministically injected fault — bit flips, short reads, transient
// I/O errors during open/search/multi-query serving, truncation at open —
// must end in one of exactly two outcomes: the query returns the correct
// result (the bounded retry or a degradation path recovered), or a typed
// kIoError/kCorruption Status reaches the caller. Never a crash, a hang,
// or a silently wrong answer; and a failed read must never poison the
// buffer pool or decoded-block cache (re-queries after the fault clears
// must be correct on the *same* environment and session).
//
// Failing (seed, site, kind, trigger) tuples are appended to
// fault_injection_failures.txt (override with XTOPK_FAULT_LOG) so CI can
// upload the exact reproduction recipe.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "baseline/stack_search.h"
#include "index/disk_index.h"
#include "index/index_builder.h"
#include "obs/metrics.h"
#include "testing/corpus.h"
#include "util/fault_env.h"
#include "xml/xml_tree.h"

namespace xtopk {
namespace {

using testing::CorpusSpec;
using testing::MakeCorpusTree;
using testing::MakeRandomWorkload;
using testing::WorkloadQuery;

std::string FailureLogPath() {
  if (const char* env = std::getenv("XTOPK_FAULT_LOG");
      env != nullptr && env[0] != '\0') {
    return env;
  }
  return "fault_injection_failures.txt";
}

void RecordFailingTuple(const std::string& tuple) {
  std::ofstream out(FailureLogPath(), std::ios::app);
  out << tuple << "\n";
}

bool TypedStorageFailure(const Status& s) {
  return s.code() == StatusCode::kIoError ||
         s.code() == StatusCode::kCorruption;
}

bool ResultsMatch(const std::vector<SearchResult>& got_in,
                  const std::vector<SearchResult>& want_in) {
  if (got_in.size() != want_in.size()) return false;
  std::vector<SearchResult> got = got_in, want = want_in;
  SortByNode(&got);
  SortByNode(&want);
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].node != want[i].node) return false;
    if (std::fabs(got[i].score - want[i].score) > 1e-6) return false;
  }
  return true;
}

/// Top-K is correct iff it is score-for-score the sorted prefix of the
/// complete result, with every returned node present in the complete set
/// (ties may reorder among exactly-equal scores).
bool TopKMatches(const std::vector<SearchResult>& topk,
                 std::vector<SearchResult> complete, size_t k) {
  SortByScoreDesc(&complete);
  if (topk.size() != std::min(k, complete.size())) return false;
  for (size_t i = 0; i < topk.size(); ++i) {
    if (std::fabs(topk[i].score - complete[i].score) > 1e-6) return false;
    bool found = false;
    for (const auto& r : complete) {
      if (r.node == topk[i].node) {
        found = std::fabs(topk[i].score - r.score) <= 1e-6;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

/// Short backoff so the 1000+-injection sweep (whose persistent plans
/// exhaust every retry) stays fast.
DiskIndexOptions FastRetryOptions() {
  DiskIndexOptions options;
  options.retry_backoff_us = 1;
  return options;
}

/// Sweep configuration: a one-page pool and no decoded cache, so every
/// blob access is a physical read the injector can hit. On a corpus this
/// small the default pool absorbs the whole segment at Open and the sweep
/// would have almost no injection points.
DiskIndexOptions SweepOptions() {
  DiskIndexOptions options = FastRetryOptions();
  options.pool_pages = 1;
  options.pool_shards = 1;
  options.decoded_cache_bytes = 0;
  return options;
}

/// One corpus + workload + fault-free expected results, shared by every
/// test in this file. Segments are written (and the oracle evaluated)
/// with the injector disarmed; the observe pass then measures how many
/// pagefile.read calls one full open + workload run makes against each
/// segment — that count is the trigger sweep range.
struct SharedCorpus {
  XmlTree tree;
  JDeweyIndex jindex;
  DeweyIndex dindex;
  std::vector<WorkloadQuery> workload;
  std::vector<std::vector<SearchResult>> expected;
  std::string image_path;
  uint64_t observed_reads = 0;
};

std::vector<std::string> RunWorkloadChecked(const SharedCorpus& c,
                                            DiskIndexEnv* env, bool strict,
                                            const std::string& tuple);

const SharedCorpus& Corpus() {
  static SharedCorpus* shared = [] {
    auto* s = new SharedCorpus;
    FaultInjector::Global().Clear();

    // A corpus big enough that the segment spans several data pages — on a
    // one-page corpus everything rides in the pool after Open and a sweep
    // would have no physical reads left to hit.
    CorpusSpec spec;
    spec.seed = 7;
    spec.nodes = 4000;
    spec.max_children = 6;
    spec.max_depth = 10;
    spec.term_prob = 0.25;
    spec.terms = {"alpha", "beta", "gamma", "delta"};
    s->tree = MakeCorpusTree(spec);
    IndexBuildOptions build_options;
    build_options.index_tag_names = false;
    IndexBuilder builder(s->tree, build_options);
    s->jindex = builder.BuildJDeweyIndex();
    s->dindex = builder.BuildDeweyIndex();
    s->workload = MakeRandomWorkload(spec, 4);
    for (const WorkloadQuery& query : s->workload) {
      StackSearchOptions options;
      options.semantics = query.semantics;
      StackSearch search(s->tree, s->dindex, options);
      s->expected.push_back(search.Search(query.keywords));
    }

    // Process-unique paths: ctest runs each TEST as its own process, and
    // every process rewrites the corpus at static-init — a shared name
    // lets a parallel sibling observe a half-written file.
    const std::string pid = std::to_string(static_cast<long>(::getpid()));
    s->image_path = ::testing::TempDir() + "/fault_injection_image." + pid;
    if (!DiskIndexWriter::Write(s->jindex, s->image_path).ok()) std::abort();

    // Observe pass: a kNone plan counts site calls without injecting, and
    // arming any plan before Open makes the environment route reads
    // through the fault-aware PageFile (same code path the sweep uses).
    FaultPlan observe;
    observe.kind = FaultKind::kNone;
    FaultInjector::Global().SetPlan(observe);
    auto env = DiskIndexEnv::Open(s->image_path, SweepOptions());
    if (!env.ok()) std::abort();
    // NOTE: pass *s explicitly — calling Corpus() here would re-enter
    // the still-initializing static's guard and deadlock.
    if (!RunWorkloadChecked(*s, env->get(), /*strict=*/true, "observe")
             .empty()) {
      std::abort();
    }
    s->observed_reads = FaultInjector::Global().CallCount("pagefile.read");
    FaultInjector::Global().Clear();
    return s;
  }();
  return *shared;
}

/// Runs the whole workload — complete and top-K — on one fresh session of
/// `env`. In strict mode every query must succeed with the fault-free
/// result; otherwise a typed kIoError/kCorruption failure is also an
/// accepted outcome (but a success must still be byte-correct). Returns
/// violation descriptions (empty = clean); the session is reused across
/// queries on purpose, so a failed load must not poison later queries.
std::vector<std::string> RunWorkloadChecked(const SharedCorpus& c,
                                            DiskIndexEnv* env, bool strict,
                                            const std::string& tuple) {
  std::vector<std::string> violations;
  auto fail = [&](size_t query, const std::string& what) {
    violations.push_back(tuple + " query=" + std::to_string(query) + " : " +
                         what);
  };
  auto session = env->NewSession();
  for (size_t i = 0; i < c.workload.size(); ++i) {
    const WorkloadQuery& query = c.workload[i];
    {
      JoinSearchOptions options;
      options.semantics = query.semantics;
      auto got = session->SearchComplete(query.keywords, options);
      if (got.ok()) {
        if (!ResultsMatch(*got, c.expected[i])) {
          fail(i, "complete result differs from fault-free oracle");
        }
      } else if (strict) {
        fail(i, "complete failed in strict mode: " + got.status().ToString());
      } else if (!TypedStorageFailure(got.status())) {
        fail(i, "untyped failure: " + got.status().ToString());
      }
    }
    {
      TopKSearchOptions options;
      options.semantics = query.semantics;
      options.k = query.k;
      auto got = session->SearchTopK(query.keywords, options);
      if (got.ok()) {
        if (!TopKMatches(*got, c.expected[i], query.k)) {
          fail(i, "top-K result differs from fault-free oracle");
        }
      } else if (strict) {
        fail(i, "top-K failed in strict mode: " + got.status().ToString());
      } else if (!TypedStorageFailure(got.status())) {
        fail(i, "untyped failure: " + got.status().ToString());
      }
    }
  }
  return violations;
}

std::string TupleString(const FaultPlan& plan, const std::string& segment) {
  return "segment=" + segment + " site=" + plan.site +
         " kind=" + FaultKindName(plan.kind) +
         " trigger=" + std::to_string(plan.trigger) + " count=" +
         (plan.count == UINT64_MAX ? std::string("inf")
                                   : std::to_string(plan.count)) +
         " seed=" + std::to_string(plan.seed);
}

void ReportViolations(const std::vector<std::string>& violations) {
  for (const std::string& v : violations) {
    RecordFailingTuple(v);
    ADD_FAILURE() << v;
  }
}

/// One sweep iteration: arm the plan, open the segment under injection,
/// run the workload (faults allowed), then clear the plan and require the
/// SAME environment — its pool and decoded cache included — to serve the
/// fault-free results (nothing from a failed read may have been admitted).
void RunOneInjection(const SharedCorpus& c, const FaultPlan& plan,
                     const std::string& path, const std::string& segment) {
  const std::string tuple = TupleString(plan, segment);
  FaultInjector::Global().SetPlan(plan);
  auto env = DiskIndexEnv::Open(path, SweepOptions());
  if (!env.ok()) {
    if (!TypedStorageFailure(env.status())) {
      std::string v = tuple + " : untyped open failure: " +
                      env.status().ToString();
      RecordFailingTuple(v);
      ADD_FAILURE() << v;
    }
    FaultInjector::Global().Clear();
    return;
  }
  ReportViolations(RunWorkloadChecked(c, env->get(), /*strict=*/false, tuple));
  FaultInjector::Global().Clear();
  ReportViolations(RunWorkloadChecked(c, env->get(), /*strict=*/true,
                                      tuple + " post-clear"));
}

/// The tentpole sweep: bit flips, short reads and transient I/O errors at
/// every observed read index of a full open + workload run, transient
/// (count=1, the bounded retry must recover) and persistent (count=inf,
/// a typed Status must surface), across several damage seeds, against the
/// plain image. At least 1000 injections must actually fire.
TEST(FaultInjectionTest, SweepChecksummedSegmentDetectsOrRecovers) {
  const SharedCorpus& c = Corpus();
  obs::Counter& injected = XTOPK_COUNTER("storage.fault.injected");
  const uint64_t fired_before = injected.value();

  const FaultKind kKinds[] = {FaultKind::kBitFlip, FaultKind::kShortRead,
                              FaultKind::kTransientIoError};
  const uint64_t reads = std::max<uint64_t>(c.observed_reads, 1);
  // Sample at most ~48 trigger points per (kind, mode) so the sweep stays
  // bounded on large corpora while still covering open- and search-phase
  // reads end to end.
  const uint64_t stride = std::max<uint64_t>(1, reads / 48);

  for (uint64_t damage_seed = 1; damage_seed <= 8; ++damage_seed) {
    for (FaultKind kind : kKinds) {
      for (bool persistent : {false, true}) {
        for (uint64_t trigger = 0; trigger < reads; trigger += stride) {
          FaultPlan plan;
          plan.kind = kind;
          plan.site = "pagefile.read";
          plan.trigger = trigger;
          plan.count = persistent ? UINT64_MAX : 1;
          plan.seed = damage_seed * 1000003ull + trigger;
          RunOneInjection(c, plan, c.image_path, "plain");
          if (HasFailure()) return;  // first failing tuple pins the repro
        }
      }
    }
    if (injected.value() - fired_before >= 1500) break;
  }
  EXPECT_GE(injected.value() - fired_before, 1000u)
      << "sweep fired too few injections to satisfy the coverage bar";
}

/// Truncation at open: the footer page is always in the lost tail, so
/// Open must fail with a typed Status — and once the plan clears, the
/// on-disk file (undamaged; truncation is simulated in the wrapper) must
/// open and serve correctly again.
TEST(FaultInjectionTest, TruncatedSegmentFailsOpenWithTypedStatus) {
  const SharedCorpus& c = Corpus();
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    FaultPlan plan;
    plan.kind = FaultKind::kTruncate;
    plan.site = "pagefile.open";
    plan.trigger = 0;
    plan.seed = seed;
    const std::string tuple = TupleString(plan, "plain");
    FaultInjector::Global().SetPlan(plan);
    auto env = DiskIndexEnv::Open(c.image_path, FastRetryOptions());
    if (env.ok() || !TypedStorageFailure(env.status())) {
      std::string v = tuple + " : truncated open did not fail typed (" +
                      env.status().ToString() + ")";
      RecordFailingTuple(v);
      ADD_FAILURE() << v;
    }
    FaultInjector::Global().Clear();
  }
  auto env = DiskIndexEnv::Open(c.image_path, FastRetryOptions());
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  ReportViolations(RunWorkloadChecked(c, env->get(), /*strict=*/true,
                                      "plain post-truncate-sweep"));
}

/// Regression for the poisoned-session bug: a session whose column load
/// failed partway must not reuse the half-materialized view on the next
/// query — SearchComplete after the fault clears must re-read and return
/// the correct result on the SAME session.
TEST(FaultInjectionTest, SessionRecoversAfterPartialLoadFailure) {
  const SharedCorpus& c = Corpus();
  FaultPlan observe;
  observe.kind = FaultKind::kNone;
  FaultInjector::Global().SetPlan(observe);
  auto env = DiskIndexEnv::Open(c.image_path, SweepOptions());
  ASSERT_TRUE(env.ok()) << env.status().ToString();

  JoinSearchOptions options;
  options.semantics = c.workload[0].semantics;
  // Fail the load at every read index of the query in turn, so the
  // materialization is interrupted at every possible point — before the
  // lengths blob, between columns, mid-column.
  size_t failures_seen = 0;
  for (uint64_t trigger = 0; trigger < 64; ++trigger) {
    auto session = (*env)->NewSession();
    FaultPlan plan;
    plan.kind = FaultKind::kTransientIoError;
    plan.site = "pagefile.read";
    plan.trigger = trigger;
    plan.count = UINT64_MAX;  // outlasts every retry
    plan.seed = trigger + 1;
    FaultInjector::Global().SetPlan(plan);
    auto bad = session->SearchComplete(c.workload[0].keywords, options);
    FaultInjector::Global().Clear();
    if (bad.ok()) {
      // Trigger beyond the query's read count: nothing left to interrupt.
      EXPECT_TRUE(ResultsMatch(*bad, c.expected[0]));
      break;
    }
    ++failures_seen;
    EXPECT_TRUE(TypedStorageFailure(bad.status())) << bad.status().ToString();
    auto good = session->SearchComplete(c.workload[0].keywords, options);
    ASSERT_TRUE(good.ok())
        << "trigger=" << trigger << ": " << good.status().ToString();
    EXPECT_TRUE(ResultsMatch(*good, c.expected[0]))
        << "session reused poisoned partial-load state after a failed read "
        << "at trigger " << trigger;
  }
  EXPECT_GT(failures_seen, 0u);
}

/// Multi-session serving under a persistent fault: several sessions of one
/// environment run the workload concurrently while every read past the
/// trigger is bit-flipped. Each query must independently end correct or
/// typed, and after the plan clears the shared pool/cache must be clean.
TEST(FaultInjectionTest, ConcurrentSessionsUnderFaultStayConsistent) {
  const SharedCorpus& c = Corpus();
  FaultPlan observe;
  observe.kind = FaultKind::kNone;
  FaultInjector::Global().SetPlan(observe);
  auto env = DiskIndexEnv::Open(c.image_path, FastRetryOptions());
  ASSERT_TRUE(env.ok()) << env.status().ToString();

  FaultPlan plan;
  plan.kind = FaultKind::kBitFlip;
  plan.site = "pagefile.read";
  plan.trigger = 4;
  plan.count = UINT64_MAX;
  plan.seed = 9001;
  const std::string tuple = TupleString(plan, "plain concurrent");
  FaultInjector::Global().SetPlan(plan);

  std::mutex mu;
  std::vector<std::string> violations;
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      auto batch = RunWorkloadChecked(c, env->get(), /*strict=*/false,
                                      tuple + " thread=" + std::to_string(t));
      std::lock_guard<std::mutex> lock(mu);
      violations.insert(violations.end(), batch.begin(), batch.end());
    });
  }
  for (auto& w : workers) w.join();
  ReportViolations(violations);

  FaultInjector::Global().Clear();
  ReportViolations(RunWorkloadChecked(c, env->get(), /*strict=*/true,
                                      tuple + " post-clear"));
}

/// Compressed corpus: a high-repetition document indexed with the DAG and
/// dictionary enabled, written as the compressed image (DAG sidecar,
/// dictionary-coded rows). Reuses the SharedCorpus shape so the same
/// RunOneInjection machinery sweeps it.
const SharedCorpus& CompressedCorpus() {
  static SharedCorpus* shared = [] {
    auto* s = new SharedCorpus;
    FaultInjector::Global().Clear();

    CorpusSpec spec;
    spec.seed = 11;
    spec.repeated = true;
    spec.rep_groups = 6;
    spec.rep_copies = 30;
    spec.terms = {"alpha", "beta", "gamma", "delta"};
    s->tree = MakeCorpusTree(spec);
    IndexBuildOptions build_options;
    build_options.index_tag_names = false;
    build_options.enable_dag = true;
    build_options.enable_dict = true;
    IndexBuilder builder(s->tree, build_options);
    s->jindex = builder.BuildJDeweyIndex();
    s->dindex = builder.BuildDeweyIndex();
    s->workload = MakeRandomWorkload(spec, 4);
    for (const WorkloadQuery& query : s->workload) {
      StackSearchOptions options;
      options.semantics = query.semantics;
      StackSearch search(s->tree, s->dindex, options);
      s->expected.push_back(search.Search(query.keywords));
    }

    s->image_path = ::testing::TempDir() + "/fault_injection_compressed";
    DiskIndexWriter::Options compressed;
    compressed.dag = true;
    compressed.dict_rows = true;
    if (!DiskIndexWriter::Write(s->jindex, s->image_path, compressed).ok()) {
      std::abort();
    }

    FaultPlan observe;
    observe.kind = FaultKind::kNone;
    FaultInjector::Global().SetPlan(observe);
    auto env = DiskIndexEnv::Open(s->image_path, SweepOptions());
    if (!env.ok()) std::abort();
    if (!RunWorkloadChecked(*s, env->get(), /*strict=*/true,
                            "observe compressed")
             .empty()) {
      std::abort();
    }
    s->observed_reads = FaultInjector::Global().CallCount("pagefile.read");
    FaultInjector::Global().Clear();
    return s;
  }();
  return *shared;
}

/// The sweep for the compressed container: damage at every observed read
/// index must be detected or recovered exactly like the plain image —
/// the dictionary, DAG sidecar and dictionary-coded row sections included
/// (a corrupt sidecar must never crash or silently mistranslate a term,
/// and a damaged dedup column must never expand to a wrong full column).
TEST(FaultInjectionTest, SweepCompressedV3SegmentDetectsOrRecovers) {
  const SharedCorpus& c = CompressedCorpus();
  const FaultKind kKinds[] = {FaultKind::kBitFlip, FaultKind::kShortRead,
                              FaultKind::kTransientIoError};
  const uint64_t reads = std::max<uint64_t>(c.observed_reads, 1);
  const uint64_t stride = std::max<uint64_t>(1, reads / 48);
  for (uint64_t damage_seed = 1; damage_seed <= 3; ++damage_seed) {
    for (FaultKind kind : kKinds) {
      for (bool persistent : {false, true}) {
        for (uint64_t trigger = 0; trigger < reads; trigger += stride) {
          FaultPlan plan;
          plan.kind = kind;
          plan.site = "pagefile.read";
          plan.trigger = trigger;
          plan.count = persistent ? UINT64_MAX : 1;
          plan.seed = damage_seed * 1000033ull + trigger;
          RunOneInjection(c, plan, c.image_path, "compressed");
          if (HasFailure()) return;
        }
      }
    }
  }
}

/// Truncation of the compressed container: the sidecar and footer live in
/// the lost tail, so Open must fail typed; the undamaged file must serve
/// correctly once the plan clears.
TEST(FaultInjectionTest, TruncatedCompressedV3FailsOpenWithTypedStatus) {
  const SharedCorpus& c = CompressedCorpus();
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    FaultPlan plan;
    plan.kind = FaultKind::kTruncate;
    plan.site = "pagefile.open";
    plan.trigger = 0;
    plan.seed = seed;
    const std::string tuple = TupleString(plan, "compressed");
    FaultInjector::Global().SetPlan(plan);
    auto env = DiskIndexEnv::Open(c.image_path, FastRetryOptions());
    if (env.ok() || !TypedStorageFailure(env.status())) {
      std::string v = tuple + " : truncated open did not fail typed (" +
                      env.status().ToString() + ")";
      RecordFailingTuple(v);
      ADD_FAILURE() << v;
    }
    FaultInjector::Global().Clear();
  }
  auto env = DiskIndexEnv::Open(c.image_path, FastRetryOptions());
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  ReportViolations(RunWorkloadChecked(c, env->get(), /*strict=*/true,
                                      "compressed post-truncate-sweep"));
}

/// The environment knob drives the same machinery: a parsed
/// XTOPK_FAULT_INJECT-style spec armed as a plan makes a persistent read
/// fault surface as a typed error, exactly like the programmatic path.
TEST(FaultInjectionTest, EnvKnobSpecParsesAndInjects) {
  const SharedCorpus& c = Corpus();
  auto plan = ParseFaultPlan(
      "kind=ioerror,site=pagefile.read,trigger=0,count=inf,seed=5");
  ASSERT_TRUE(plan.has_value());
  FaultInjector::Global().SetPlan(*plan);
  auto env = DiskIndexEnv::Open(c.image_path, FastRetryOptions());
  EXPECT_FALSE(env.ok());
  if (!env.ok()) {
    EXPECT_TRUE(TypedStorageFailure(env.status()));
  }
  FaultInjector::Global().Clear();
}

}  // namespace
}  // namespace xtopk
