#ifndef XTOPK_TESTS_TESTING_DISK_IMAGE_H_
#define XTOPK_TESTS_TESTING_DISK_IMAGE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "index/disk_index.h"
#include "util/status.h"

namespace xtopk {
namespace testing {

/// Opens the disk image at `path` and materializes every list in `terms`
/// in full (all levels, plus scores when the image has them). The
/// session's view() then holds the persisted copy of each list, ready to
/// compare against the index that was written or to run ValidateIndex on.
/// A damaged image surfaces as the failing Open or load status.
inline StatusOr<std::unique_ptr<DiskJDeweyIndex>> LoadAllLists(
    const std::string& path, const std::vector<std::string>& terms) {
  auto disk = DiskJDeweyIndex::Open(path);
  if (!disk.ok()) return disk.status();
  for (const std::string& term : terms) {
    auto list = (*disk)->LoadList(term, UINT32_MAX);  // clamped to max len
    if (!list.ok()) return list.status();
  }
  return disk;
}

}  // namespace testing
}  // namespace xtopk

#endif  // XTOPK_TESTS_TESTING_DISK_IMAGE_H_
