#include "core/updatable_engine.h"

#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <numeric>
#include <thread>
#include <utility>

#include "index/disk_index.h"
#include "index/segment_builder.h"
#include "obs/metrics.h"
#include "obs/windowed.h"
#include "util/timer.h"
#include "xml/jdewey_builder.h"

namespace xtopk {

namespace {

void RemoveSegmentFiles(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".manifest").c_str());
}

/// The node ids [begin, end).
std::vector<NodeId> NodeRange(NodeId begin, size_t end) {
  std::vector<NodeId> nodes(end - begin);
  std::iota(nodes.begin(), nodes.end(), begin);
  return nodes;
}

}  // namespace

UpdatableEngine::UpdatableEngine(XmlTree initial, EngineOptions options)
    : tree_(std::move(initial)), options_(options) {
  options_.index.scoring = options_.scoring;
  encoding_ = JDeweyBuilder::Assign(tree_, options_.index.jdewey_gap);
  segments_.SetCorpusNodes(tree_.node_count());
  if (tree_.node_count() > 1) {
    // The initial document becomes the base sealed segment; everything
    // added afterwards accumulates in the memtable. A bare root shell is
    // not worth sealing: it carries no indexable rows, and the first
    // insert under a childless root re-encodes the root itself — which
    // would read as a stale base and force a pointless full rebuild.
    SealInMemory();
  }
}

UpdatableEngine::UpdatableEngine(RecoveryTag, XmlTree initial,
                                 EngineOptions options)
    : tree_(std::move(initial)), options_(options) {
  options_.index.scoring = options_.scoring;
}

UpdatableEngine::~UpdatableEngine() {
  if (scheduler_ != nullptr) scheduler_->Stop();
}

StatusOr<std::unique_ptr<UpdatableEngine>> UpdatableEngine::OpenDurable(
    XmlTree initial, EngineOptions options, DurableOptions durable) {
  if (durable.data_dir.empty()) {
    return Status::InvalidArgument("OpenDurable: data_dir is required");
  }
  ::mkdir(durable.data_dir.c_str(), 0755);  // EEXIST is fine

  StatusOr<RecoveredSegmentSet> recovered_or =
      RecoverSegmentSet(durable.data_dir);
  if (!recovered_or.ok()) return recovered_or.status();
  RecoveredSegmentSet rec = std::move(*recovered_or);

  StatusOr<std::unique_ptr<ManifestLog>> log_or =
      ManifestLog::Open(ManifestLogPath(durable.data_dir));
  if (!log_or.ok()) return log_or.status();

  std::unique_ptr<UpdatableEngine> engine(
      new UpdatableEngine(RecoveryTag{}, std::move(initial), options));
  engine->durable_options_ = durable;
  engine->log_ = std::move(*log_or);
  engine->next_segment_id_ = rec.next_segment_id;

  // Resume the maintained encoding + live set. Any failure below drops to
  // the degraded path: the recovered set cannot be trusted against this
  // tree, so it is logged away and the whole tree is re-sealed. The one
  // exception is a committed segment whose bytes do not parse (kCorruption:
  // damage, or a data directory written in an earlier on-disk format) —
  // that is the operator's to see, so OpenDurable returns it.
  bool resumed = false;
  if (!rec.live.empty() && rec.last_seal_id != 0 &&
      rec.watermark <= engine->tree_.node_count()) {
    StatusOr<JDeweyEncoding> enc = JDeweyBuilder::LoadEncoding(
        EncodingFilePath(durable.data_dir, rec.last_seal_id));
    if (enc.ok() &&
        enc->node_count() <= engine->tree_.node_count() &&
        enc->node_count() >= rec.watermark) {
      engine->encoding_ = std::move(*enc);
      NodeId reencoded = kInvalidNode;
      engine->encoding_updates_ += JDeweyBuilder::ExtendAssign(
          engine->tree_, engine->options_.index.jdewey_gap,
          &engine->encoding_, &reencoded);
      bool all_open = true;
      for (uint64_t id : rec.live) {
        Status s = engine->segments_.AddDiskSegment(
            SegmentFilePath(durable.data_dir, id), durable.disk, id);
        if (s.code() == StatusCode::kCorruption) return s;
        if (!s.ok()) {
          all_open = false;
          break;
        }
      }
      if (all_open) {
        engine->watermark_ = static_cast<NodeId>(rec.watermark);
        engine->memtable_upto_ = engine->watermark_;
        engine->enc_id_ = rec.last_seal_id;
        if (reencoded != kInvalidNode && reencoded < engine->watermark_) {
          engine->needs_full_rebuild_ = true;
        }
        engine->memtable_dirty_ =
            engine->watermark_ < engine->tree_.node_count();
        resumed = true;
      } else {
        engine->segments_.Clear();
      }
    }
  }
  if (!resumed) {
    // Degraded (or fresh-directory) path: log the stale set away, delete
    // its files, start the encoding from scratch and durably seal the
    // whole tree so reopen covers it.
    for (uint64_t id : rec.live) {
      ManifestRecord drop;
      drop.type = ManifestRecordType::kDrop;
      drop.id = id;
      Status s = engine->log_->Append(drop);
      if (!s.ok()) return s;
      RemoveSegmentFiles(SegmentFilePath(durable.data_dir, id));
    }
    if (rec.last_seal_id != 0) {
      std::remove(
          EncodingFilePath(durable.data_dir, rec.last_seal_id).c_str());
    }
    engine->encoding_ =
        JDeweyBuilder::Assign(engine->tree_, engine->options_.index.jdewey_gap);
    engine->watermark_ = 0;
    if (engine->tree_.node_count() > 1) {
      std::lock_guard<std::mutex> lock(engine->maintenance_mu_);
      Status s = engine->SealDurableLocked();
      if (!s.ok()) return s;
    }
  }
  engine->segments_.SetCorpusNodes(engine->tree_.node_count());

  UpdatableEngine* raw = engine.get();
  engine->scheduler_ = std::make_unique<CompactionScheduler>([raw] {
    // A failed round is logged for recovery and retried at the next
    // wake-up; the scheduler only needs to know whether one published.
    bool published = false;
    (void)raw->CompactRound(/*merge_all=*/false, &published);
    return published;
  });
  if (durable.auto_compact) engine->scheduler_->Start();
  return engine;
}

NodeId UpdatableEngine::AddElement(NodeId parent, const std::string& tag,
                                   const std::string& text) {
  NodeId node = tree_.AddChild(parent, tag);
  if (!text.empty()) tree_.AppendText(node, text);
  NodeId reencoded = kInvalidNode;
  uint64_t updates = JDeweyBuilder::InsertAssign(
      tree_, node, options_.index.jdewey_gap, &encoding_, &reencoded);
  encoding_updates_ += updates;
  XTOPK_COUNTER("engine.encoding_updates").Add(updates);
  // A re-encode moves the numbers of the subtree it is rooted at: below
  // the watermark that invalidates sealed columns, below memtable_upto_
  // the memtable's rows, and above it only nodes no refresh has indexed.
  if (reencoded != kInvalidNode && reencoded < watermark_) {
    needs_full_rebuild_ = true;
  } else if (reencoded < memtable_upto_) {
    memtable_upto_ = watermark_;
  }
  memtable_dirty_ = true;
  return node;
}

void UpdatableEngine::AppendText(NodeId node, const std::string& text) {
  if (text.empty()) return;  // nothing to index; the index stays clean
  tree_.AppendText(node, text);
  if (node < watermark_) {
    needs_full_rebuild_ = true;  // sealed rows of this node are stale
  } else {
    if (node < memtable_upto_) memtable_upto_ = watermark_;  // so are these
    memtable_dirty_ = true;
  }
}

NodeId UpdatableEngine::AddDocument(const std::string& name,
                                    const XmlTree& doc) {
  NodeId wrapper = AddElement(tree_.root(), "doc");
  tree_.AddAttribute(wrapper, "name", name);
  if (!doc.empty()) {
    NodeId root_copy =
        AddElement(wrapper, doc.TagName(doc.root()), doc.text(doc.root()));
    std::vector<std::pair<NodeId, NodeId>> stack;  // (src, dst)
    stack.emplace_back(doc.root(), root_copy);
    while (!stack.empty()) {
      auto [src, dst] = stack.back();
      stack.pop_back();
      std::vector<NodeId> kids = doc.Children(src);
      std::vector<NodeId> copies;
      copies.reserve(kids.size());
      for (NodeId child : kids) {
        copies.push_back(AddElement(dst, doc.TagName(child), doc.text(child)));
      }
      for (size_t i = 0; i < kids.size(); ++i) {
        stack.emplace_back(kids[i], copies[i]);
      }
    }
  }
  ++memtable_docs_;
  return wrapper;
}

void UpdatableEngine::FullRebuild() {
  segments_.Clear();
  watermark_ = 0;
  // The MAINTAINED encoding stays authoritative — the rebuilt base segment
  // uses the same numbers, so the memtable keeps extending it without a
  // re-assignment.
  SealInMemory();
  needs_full_rebuild_ = false;
  ++rebuilds_;
  XTOPK_COUNTER("engine.rebuilds").Add(1);
}

void UpdatableEngine::DurableFullRebuild() {
  std::lock_guard<std::mutex> lock(maintenance_mu_);
  std::shared_ptr<const SegmentSetVersion> pinned = segments_.Pin();
  std::vector<uint64_t> old_ids;
  for (const auto& seg : pinned->sealed()) {
    if (seg->id() != 0) old_ids.push_back(seg->id());
  }

  size_t count = tree_.node_count();
  JDeweyIndex segment = BuildSegmentIndex(tree_, encoding_, NodeRange(0, count),
                                          options_.index);

  uint64_t id = next_segment_id_++;
  std::string path = SegmentFilePath(durable_options_.data_dir, id);
  std::string enc_path = EncodingFilePath(durable_options_.data_dir, id);
  Status s = DiskIndexWriter::Write(segment, path, {}, count);
  if (s.ok()) s = JDeweyBuilder::SaveEncoding(encoding_, enc_path);
  if (s.ok()) {
    // The atomic switch: a commit whose inputs are the whole live set and
    // whose watermark covers the whole tree. Recovery lands on the old
    // set before this record and on the new segment after it.
    if (!old_ids.empty()) {
      ManifestRecord begin;
      begin.type = ManifestRecordType::kCompactBegin;
      begin.id = id;
      begin.inputs = old_ids;
      s = log_->Append(begin);
      if (s.ok()) {
        ManifestRecord commit;
        commit.type = ManifestRecordType::kCompactCommit;
        commit.id = id;
        commit.covered_nodes = count;
        commit.watermark = count;
        commit.inputs = old_ids;
        s = log_->Append(commit);
      }
    } else {
      ManifestRecord seal;
      seal.type = ManifestRecordType::kSeal;
      seal.id = id;
      seal.covered_nodes = count;
      seal.watermark = count;
      s = log_->Append(seal);
    }
  }
  if (!s.ok()) {
    // Disk or log went bad: fall back to the in-memory rebuild so queries
    // stay correct. The log keeps the pre-rebuild set as the recovery
    // state — stale but consistent.
    RemoveSegmentFiles(path);
    std::remove(enc_path.c_str());
    next_segment_id_ = id;  // the reservation never reached the log
    FullRebuild();
    return;
  }

  segments_.Clear();
  Status open = segments_.AddDiskSegment(path, durable_options_.disk, id);
  if (!open.ok()) {
    // The files are durable and committed but unreadable here (transient
    // I/O?). Serve from memory; reopen recovers the disk copy.
    FullRebuild();
    return;
  }
  for (const auto& seg : pinned->sealed()) {
    if (seg->id() == 0) continue;
    ManifestRecord drop;
    drop.type = ManifestRecordType::kDrop;
    drop.id = seg->id();
    (void)log_->Append(drop);  // commit already orphaned it for recovery
    seg->MarkSuperseded();
  }
  if (enc_id_ != 0 && enc_id_ != id) {
    std::remove(
        EncodingFilePath(durable_options_.data_dir, enc_id_).c_str());
  }
  enc_id_ = id;
  SealedUpTo(count);
  needs_full_rebuild_ = false;
  ++rebuilds_;
  XTOPK_COUNTER("engine.rebuilds").Add(1);
}

void UpdatableEngine::RefreshMemtable() {
  size_t count = tree_.node_count();
  // The memtable keeps what it indexed unless a mutation moved
  // memtable_upto_ back to the watermark; then the delta is everything.
  if (memtable_upto_ == watermark_) memtable_.reset();
  if (memtable_upto_ < count) {
    std::vector<NodeId> nodes = NodeRange(memtable_upto_, count);
    memtable_ = Memtable::Extend(
        memtable_, BuildSegmentIndex(tree_, encoding_, nodes, options_.index),
        options_.index.stats_buckets, *segments_.Pin()->state());
    memtable_upto_ = static_cast<NodeId>(count);
    XTOPK_COUNTER("index.memtable_nodes_indexed").Add(nodes.size());
  }
  // One version for the new memtable and the grown N together.
  segments_.SetMemtable(memtable_, count);
  memtable_dirty_ = false;
  ++memtable_refreshes_;
  XTOPK_COUNTER("engine.memtable_refreshes").Add(1);
  XTOPK_GAUGE("index.memtable_docs")
      .Set(static_cast<int64_t>(memtable_docs_));
}

void UpdatableEngine::EnsureFresh() {
  if (needs_full_rebuild_) {
    if (durable()) {
      DurableFullRebuild();
    } else {
      FullRebuild();
    }
  } else if (memtable_dirty_) {
    RefreshMemtable();
  }
  // N of the idf term grows with the tree; a change invalidates the
  // version's scores (version bump inside; a no-op after the refresh
  // above, which published N with the memtable).
  segments_.SetCorpusNodes(tree_.node_count());
}

void UpdatableEngine::SealInMemory() {
  size_t count = tree_.node_count();
  std::vector<NodeId> nodes = NodeRange(watermark_, count);
  segments_.AddMemorySegment(
      BuildSegmentIndex(tree_, encoding_, nodes, options_.index),
      nodes.size());
  SealedUpTo(count);
}

void UpdatableEngine::SealedUpTo(size_t count) {
  watermark_ = static_cast<NodeId>(count);
  memtable_upto_ = watermark_;
  memtable_.reset();
  segments_.SetMemtable(nullptr, tree_.node_count());
  memtable_dirty_ = false;
  memtable_docs_ = 0;
  XTOPK_GAUGE("index.memtable_docs").Set(0);
}

Status UpdatableEngine::SealDurableLocked() {
  size_t count = tree_.node_count();
  std::vector<NodeId> nodes = NodeRange(watermark_, count);
  JDeweyIndex segment =
      BuildSegmentIndex(tree_, encoding_, nodes, options_.index);

  uint64_t id = next_segment_id_++;
  std::string path = SegmentFilePath(durable_options_.data_dir, id);
  std::string enc_path = EncodingFilePath(durable_options_.data_dir, id);

  // Files first, then the log record: the record is the commit point, so
  // a crash before it leaves orphan files recovery deletes, and a crash
  // after it leaves a fully readable segment.
  Status s = DiskIndexWriter::Write(segment, path, {}, nodes.size());
  if (s.ok()) s = JDeweyBuilder::SaveEncoding(encoding_, enc_path);
  if (s.ok()) {
    ManifestRecord seal;
    seal.type = ManifestRecordType::kSeal;
    seal.id = id;
    seal.covered_nodes = nodes.size();
    seal.watermark = count;
    s = log_->Append(seal);
  }
  if (!s.ok()) {
    RemoveSegmentFiles(path);
    std::remove(enc_path.c_str());
    return s;
  }
  s = segments_.AddDiskSegment(path, durable_options_.disk, id);
  if (!s.ok()) return s;

  if (enc_id_ != 0 && enc_id_ != id) {
    std::remove(
        EncodingFilePath(durable_options_.data_dir, enc_id_).c_str());
  }
  enc_id_ = id;
  SealedUpTo(count);
  return Status::Ok();
}

Status UpdatableEngine::SealMemtable() {
  if (!durable()) {
    return Status::InvalidArgument(
        "SealMemtable() needs a durable engine (OpenDurable)");
  }
  if (needs_full_rebuild_) DurableFullRebuild();
  if (watermark_ >= tree_.node_count()) {
    return Status::InvalidArgument("updatable engine: memtable is empty");
  }
  Status s;
  {
    std::lock_guard<std::mutex> lock(maintenance_mu_);
    s = SealDurableLocked();
  }
  if (s.ok() && scheduler_ != nullptr) scheduler_->Notify();
  return s;
}

Status UpdatableEngine::Compact() {
  if (!durable()) {
    return Status::InvalidArgument(
        "Compact() needs a durable engine (OpenDurable)");
  }
  EnsureFresh();
  bool published = false;
  return CompactRound(/*merge_all=*/true, &published);
}

void UpdatableEngine::AbandonOutput(uint64_t id, const std::string& path) {
  ManifestRecord drop;
  drop.type = ManifestRecordType::kDrop;
  drop.id = id;
  (void)log_->Append(drop);  // recovery deletes the orphan either way
  RemoveSegmentFiles(path);
}

Status UpdatableEngine::CompactRound(bool merge_all, bool* published) {
  *published = false;
  std::shared_ptr<const SegmentSetVersion> pinned = segments_.Pin();
  std::vector<std::shared_ptr<const SealedSegment>> disks;
  for (const auto& seg : pinned->sealed()) {
    if (seg->id() != 0) disks.push_back(seg);
  }

  std::vector<std::shared_ptr<const SealedSegment>> inputs;
  if (merge_all) {
    if (disks.size() < 2) return Status::Ok();
    inputs = std::move(disks);
  } else {
    std::vector<uint64_t> sizes;
    sizes.reserve(disks.size());
    for (const auto& seg : disks) sizes.push_back(seg->data_bytes());
    std::vector<size_t> picked =
        PickTieredCompaction(sizes, durable_options_.compaction);
    if (picked.size() < 2) return Status::Ok();
    inputs.reserve(picked.size());
    for (size_t idx : picked) inputs.push_back(disks[idx]);
  }

  Timer timer;
  uint64_t bytes_in = 0;
  std::vector<uint64_t> input_ids;
  input_ids.reserve(inputs.size());
  for (const auto& seg : inputs) {
    bytes_in += seg->data_bytes();
    input_ids.push_back(seg->id());
  }

  uint64_t out_id;
  std::string out_path;
  {
    std::lock_guard<std::mutex> lock(maintenance_mu_);
    out_id = next_segment_id_++;
    out_path = SegmentFilePath(durable_options_.data_dir, out_id);
    ManifestRecord begin;
    begin.type = ManifestRecordType::kCompactBegin;
    begin.id = out_id;
    begin.inputs = input_ids;
    Status s = log_->Append(begin);
    if (!s.ok()) return s;
  }

  // The merge + write runs OFF the maintenance lock: queries keep
  // serving, seals keep landing. The inputs are immutable, so the merge
  // is correct regardless of what publishes meanwhile.
  uint64_t covered = 0;
  StatusOr<JDeweyIndex> merged = BuildCompactedSegment(inputs, &covered);
  Status s = merged.ok() ? Status::Ok() : merged.status();
  if (s.ok()) s = DiskIndexWriter::Write(*merged, out_path, {}, covered);
  StatusOr<std::shared_ptr<const SealedSegment>> output =
      s.ok() ? SealedSegment::FromDisk(out_path, durable_options_.disk,
                                       out_id)
             : StatusOr<std::shared_ptr<const SealedSegment>>(s);
  if (!output.ok()) {
    AbandonOutput(out_id, out_path);
    return output.status();
  }

  {
    std::lock_guard<std::mutex> lock(maintenance_mu_);
    // Publish BEFORE logging the commit: if a durable rebuild raced us,
    // the identity match fails and we abandon — the log never claims a
    // switch the memory state refused.
    if (!segments_.PublishCompaction(inputs, *output)) {
      AbandonOutput(out_id, out_path);
      return Status::Internal("segment set changed during compaction");
    }
    *published = true;
    ManifestRecord commit;
    commit.type = ManifestRecordType::kCompactCommit;
    commit.id = out_id;
    commit.covered_nodes = covered;
    commit.inputs = input_ids;
    s = log_->Append(commit);
    if (!s.ok()) {
      // The commit never became durable: reopen recovers the INPUTS (the
      // pre-compaction state) and deletes the output as an orphan. This
      // process keeps serving the published output — result-identical —
      // but must NOT delete the input files recovery depends on.
      return s;
    }
    for (const auto& seg : inputs) {
      ManifestRecord drop;
      drop.type = ManifestRecordType::kDrop;
      drop.id = seg->id();
      (void)log_->Append(drop);  // commit already orphaned it for recovery
      seg->MarkSuperseded();
    }
  }

  uint64_t duration_us = static_cast<uint64_t>(timer.ElapsedMicros());
  uint64_t bytes_out = (*output)->data_bytes();
  XTOPK_COUNTER("index.compactions").Add(1);
  XTOPK_COUNTER("index.compaction.runs").Add(1);
  XTOPK_WINDOWED_COUNTER("index.compaction.runs").Add(1);
  XTOPK_COUNTER("index.compaction.bytes_in").Add(bytes_in);
  XTOPK_COUNTER("index.compaction.bytes_out").Add(bytes_out);
  XTOPK_HISTOGRAM("index.compaction.duration_us").Record(duration_us);
  XTOPK_WINDOWED_HISTOGRAM("index.compaction.duration_us")
      .Record(duration_us);

  if (durable_options_.compaction.throttle_bytes_per_sec > 0) {
    double seconds =
        static_cast<double>(bytes_out) /
        static_cast<double>(durable_options_.compaction.throttle_bytes_per_sec);
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }
  return Status::Ok();
}

uint64_t UpdatableEngine::plan_watermark() {
  // Fold pending mutations in first: ingest only dirties the memtable and
  // the version bumps at the lazy refresh, so without this a cache keyed
  // on the watermark would serve pre-ingest results after an AddDocument.
  EnsureFresh();
  return segments_.version();
}

std::vector<std::string> UpdatableEngine::Normalize(
    const std::vector<std::string>& keywords) const {
  return NormalizeKeywords(options_.index.tokenizer, keywords);
}

BatchQueryResult UpdatableEngine::Run(const BatchQuery& query) {
  EnsureFresh();
  // Pin the current version for the query's whole lifetime: background
  // compaction publishes cannot mutate the list set under the join.
  SegmentSetReader reader(segments_.Pin());
  BatchQueryResult result = RunQuery(tree_, options_, &reader,
                                     /*prebuilt=*/nullptr, &plan_cache_, query);
  last_accounting_ = result.accounting;
  last_status_ = result.status;
  return result;
}

std::vector<QueryHit> UpdatableEngine::Search(
    const std::vector<std::string>& keywords, Semantics semantics) {
  return Run({.keywords = keywords, .k = 0, .semantics = semantics,
              .deadline = {}})
      .hits;
}

std::vector<QueryHit> UpdatableEngine::SearchTopK(
    const std::vector<std::string>& keywords, size_t k, Semantics semantics) {
  return Run({.keywords = keywords, .k = k, .semantics = semantics,
              .deadline = {}})
      .hits;
}

}  // namespace xtopk
