// LocalDirBackend — blobs as files in one directory.
//
// A blob named "MANIFEST" is exactly the file <dir>/MANIFEST.  put()
// is atomic: write a ".tmp" sibling, then rename over the target.
// Injected torn writes bypass the rename on purpose — they model a
// backend without atomic replace, and the partial object must be
// observable for recovery tests.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "storage/backend.hpp"

namespace fbf::storage {

class LocalDirBackend final : public StorageBackend {
 public:
  /// Creates `dir` (and parents) if absent.  `faults` may be nullptr.
  explicit LocalDirBackend(std::string dir,
                           fbf::util::FaultInjector* faults = nullptr);

  [[nodiscard]] fbf::util::Status put(const BlobRef& ref,
                                      std::string_view bytes) override;
  [[nodiscard]] fbf::util::Result<std::string> get(const BlobRef& ref) override;
  [[nodiscard]] fbf::util::Result<std::vector<BlobRef>> list(
      std::string_view prefix) override;
  [[nodiscard]] fbf::util::Status remove(const BlobRef& ref) override;
  [[nodiscard]] fbf::util::Result<bool> exists(const BlobRef& ref) override;
  [[nodiscard]] fbf::util::Result<std::unique_ptr<AppendHandle>> open_append(
      const BlobRef& ref, bool truncate) override;
  [[nodiscard]] std::string description() const override {
    return "local:" + dir_;
  }

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

 private:
  friend class LocalDirAppendHandle;

  [[nodiscard]] std::string path_of(const BlobRef& ref) const;
  [[nodiscard]] std::uint64_t next_seq(const std::string& name);

  std::string dir_;
  /// Per-blob mutation counter keying the fault draws (see backend.hpp).
  std::unordered_map<std::string, std::uint64_t> op_seq_;
};

}  // namespace fbf::storage
