#ifndef XTOPK_TESTS_TESTING_DURABLE_H_
#define XTOPK_TESTS_TESTING_DURABLE_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <utility>

#include "core/updatable_engine.h"

namespace xtopk {
namespace testing {

/// A fresh data directory under the gtest temp dir (unique per process),
/// removed with its contents when the object goes out of scope.
class ScopedDataDir {
 public:
  explicit ScopedDataDir(const std::string& tag)
      : path_(::testing::TempDir() + "/" + tag + "." +
              std::to_string(static_cast<long>(::getpid()))) {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ~ScopedDataDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScopedDataDir(const ScopedDataDir&) = delete;
  ScopedDataDir& operator=(const ScopedDataDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// OpenDurable over `data_dir` with background compaction off, so the
/// test's own SealMemtable() and Compact() calls are the only maintenance.
/// Null (after a test failure) when the open fails.
inline std::unique_ptr<UpdatableEngine> OpenDurableNoBackground(
    XmlTree tree, const std::string& data_dir, EngineOptions options = {}) {
  DurableOptions durable;
  durable.data_dir = data_dir;
  durable.auto_compact = false;
  auto opened =
      UpdatableEngine::OpenDurable(std::move(tree), options, durable);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return opened.ok() ? std::move(opened).value() : nullptr;
}

}  // namespace testing
}  // namespace xtopk

#endif  // XTOPK_TESTS_TESTING_DURABLE_H_
