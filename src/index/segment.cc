#include "index/segment.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"

namespace xtopk {

SegmentedIndex::SegmentedIndex() {
  head_ = std::make_shared<const SegmentSetVersion>(
      next_version_++, std::make_shared<const SealedSetState>(
                           std::vector<std::shared_ptr<const SealedSegment>>{}),
      nullptr, 0);
}

std::shared_ptr<const SegmentSetVersion> SegmentedIndex::Pin() const {
  std::lock_guard<std::mutex> lock(mu_);
  return head_;
}

void SegmentedIndex::PublishLocked(
    std::shared_ptr<const SealedSetState> state,
    std::shared_ptr<const Memtable> memtable, uint64_t corpus_nodes) {
  size_t sealed_count = state->sealed().size();
  head_ = std::make_shared<const SegmentSetVersion>(
      next_version_++, std::move(state), std::move(memtable), corpus_nodes);
  XTOPK_GAUGE("index.segments").Set(static_cast<int64_t>(sealed_count));
}

void SegmentedIndex::PublishSealedLocked(
    std::vector<std::shared_ptr<const SealedSegment>> sealed) {
  PublishLocked(std::make_shared<const SealedSetState>(std::move(sealed)),
                head_->memtable_ref(), head_->corpus_nodes());
}

void SegmentedIndex::AddMemorySegment(JDeweyIndex segment,
                                      uint64_t covered_nodes) {
  std::shared_ptr<const SealedSegment> sealed =
      SealedSegment::FromMemory(std::move(segment), covered_nodes);
  std::lock_guard<std::mutex> lock(mu_);
  auto list = head_->sealed();
  list.push_back(std::move(sealed));
  PublishSealedLocked(std::move(list));
}

Status SegmentedIndex::AddDiskSegment(const std::string& path,
                                      DiskIndexOptions options, uint64_t id) {
  StatusOr<std::shared_ptr<const SealedSegment>> sealed =
      SealedSegment::FromDisk(path, options, id);
  if (!sealed.ok()) return sealed.status();
  std::lock_guard<std::mutex> lock(mu_);
  auto list = head_->sealed();
  list.push_back(std::move(*sealed));
  PublishSealedLocked(std::move(list));
  return Status::Ok();
}

void SegmentedIndex::SetMemtable(std::shared_ptr<const Memtable> memtable,
                                 uint64_t corpus_nodes) {
  std::lock_guard<std::mutex> lock(mu_);
  PublishLocked(head_->state(), std::move(memtable), corpus_nodes);
}

void SegmentedIndex::SetCorpusNodes(uint64_t corpus_nodes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (corpus_nodes == head_->corpus_nodes()) return;
  PublishLocked(head_->state(), head_->memtable_ref(), corpus_nodes);
}

void SegmentedIndex::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  PublishLocked(std::make_shared<const SealedSetState>(
                    std::vector<std::shared_ptr<const SealedSegment>>{}),
                nullptr, head_->corpus_nodes());
}

bool SegmentedIndex::PublishCompaction(
    const std::vector<std::shared_ptr<const SealedSegment>>& inputs,
    std::shared_ptr<const SealedSegment> output) {
  std::lock_guard<std::mutex> lock(mu_);
  auto list = head_->sealed();
  // Identity-match every input in the head; the output takes the first
  // input's position so publish order is preserved.
  for (const auto& input : inputs) {
    if (std::find(list.begin(), list.end(), input) == list.end())
      return false;
  }
  if (inputs.empty()) return false;
  auto first = std::find(list.begin(), list.end(), inputs.front());
  *first = std::move(output);
  list.erase(std::remove_if(list.begin(), list.end(),
                            [&](const std::shared_ptr<const SealedSegment>&
                                    seg) {
                              return std::find(inputs.begin(), inputs.end(),
                                               seg) != inputs.end();
                            }),
             list.end());
  PublishSealedLocked(std::move(list));
  return true;
}

Status SegmentedIndex::Compact(const std::string& path,
                               DiskIndexOptions options) {
  std::shared_ptr<const SegmentSetVersion> pinned = Pin();
  if (pinned->sealed().empty()) return Status::Ok();

  uint64_t covered = 0;
  StatusOr<JDeweyIndex> merged =
      BuildCompactedSegment(pinned->sealed(), &covered);
  if (!merged.ok()) return merged.status();

  Status s = DiskIndexWriter::Write(*merged, path, {}, covered);
  if (!s.ok()) return s;

  StatusOr<std::shared_ptr<const SealedSegment>> output =
      SealedSegment::FromDisk(path, options);
  if (!output.ok()) return output.status();

  if (!PublishCompaction(pinned->sealed(), *output)) {
    // A concurrent mutation changed the set since the pin; the merge no
    // longer describes the head. Leave the head alone — the caller sees
    // the conflict and may retry.
    return Status::Internal("segment set changed during Compact");
  }
  // Superseded inputs' files are deleted when the last pinned version
  // drops them — except an input living at the output path, which would
  // delete the file just written.
  for (const auto& seg : pinned->sealed()) {
    if (!seg->path().empty() && seg->path() != path) seg->MarkSuperseded();
  }
  XTOPK_COUNTER("index.compactions").Add(1);
  return Status::Ok();
}

}  // namespace xtopk
