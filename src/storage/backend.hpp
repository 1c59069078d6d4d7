// Pluggable blob storage for the durability layer.
//
// The paper's setting is *cloud* data (§1: the department's master list
// lives in a hosted environment).  StorageBackend is the seam: named
// immutable blobs with whole-object atomic put/get/list/remove plus an
// append handle for journals, so the checkpoint chain (storage/chain) and
// the journal above it are backend-agnostic.  Two implementations ship:
//
//   LocalDirBackend  — blobs are files in one directory.
//   MemObjectBackend — S3-style in-process object map, the reference
//                      backend for crash/fault property tests.
//
// Both route every mutation through util::FaultInjector when one is
// attached: keyed put-failure, torn write, lost object and slow-backend
// draws make durability degradation exactly as reproducible as shard
// faults (same (seed, site, key, sequence) scheme — see util/fault.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.hpp"

namespace fbf::util {
class FaultInjector;
}

namespace fbf::storage {

/// Backend-scoped handle to one named blob.  Names are flat keys (any
/// '/' is part of the key, not a directory separator contract); a
/// BlobRef is only meaningful against the backend that minted its
/// namespace.
struct BlobRef {
  std::string name;

  friend bool operator==(const BlobRef&, const BlobRef&) = default;
  friend auto operator<=>(const BlobRef&, const BlobRef&) = default;
};

/// Append stream over one blob (journals).  Appends are *buffered*:
/// bytes become part of the blob — and visible to get()/recovery — only
/// at sync().  That buffering is what a group-commit policy batches; a
/// crash (process death, or MemObjectBackend::crash() in tests) loses
/// exactly the unsynced suffix, never a synced byte.
class AppendHandle {
 public:
  virtual ~AppendHandle() = default;

  /// Buffers `bytes` after everything appended so far.  Fails only on a
  /// dead handle (a previous torn sync) — no I/O happens here.
  [[nodiscard]] virtual fbf::util::Status append(std::string_view bytes) = 0;

  /// Makes every buffered byte durable (write + fsync for files, object
  /// publish for the memory backend).  A torn-write fault may land only
  /// a prefix of the buffered bytes; the handle is then dead (the
  /// modeled process crashed mid-sync) and reports kUnavailable.
  [[nodiscard]] virtual fbf::util::Status sync() = 0;

  /// Bytes buffered since the last successful sync.
  [[nodiscard]] virtual std::size_t pending_bytes() const noexcept = 0;
};

/// Named-immutable-blob store.  put() atomically creates or replaces a
/// whole object (readers never observe a mix of old and new bytes unless
/// a torn-write fault models a non-atomic backend); get() returns the
/// full object.  Implementations are not required to be thread-safe —
/// the durability layer is single-writer by design.
class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  /// Atomically create or replace `ref` with `bytes`.
  [[nodiscard]] virtual fbf::util::Status put(const BlobRef& ref,
                                              std::string_view bytes) = 0;

  /// Whole object, or kNotFound when absent.
  [[nodiscard]] virtual fbf::util::Result<std::string> get(
      const BlobRef& ref) = 0;

  /// Every blob whose name starts with `prefix`, sorted by name.
  [[nodiscard]] virtual fbf::util::Result<std::vector<BlobRef>> list(
      std::string_view prefix) = 0;

  /// Deletes `ref`; deleting an absent blob is ok (idempotent).
  [[nodiscard]] virtual fbf::util::Status remove(const BlobRef& ref) = 0;

  [[nodiscard]] virtual fbf::util::Result<bool> exists(const BlobRef& ref) = 0;

  /// Opens `ref` for appending; `truncate` resets it to empty first.
  /// At most one live append handle per blob — the durability layer is
  /// the only writer.
  [[nodiscard]] virtual fbf::util::Result<std::unique_ptr<AppendHandle>>
  open_append(const BlobRef& ref, bool truncate) = 0;

  /// Human-readable backend identity for reports ("local:/path", "mem").
  [[nodiscard]] virtual std::string description() const = 0;

  /// Attach (or detach, with nullptr) keyed fault injection.  The
  /// injector must outlive the backend.
  void set_faults(fbf::util::FaultInjector* faults) noexcept {
    faults_ = faults;
  }
  [[nodiscard]] fbf::util::FaultInjector* faults() const noexcept {
    return faults_;
  }

 protected:
  /// What the keyed draws decided for one put of `size` bytes to `ref`.
  /// `sequence` is the per-blob mutation index (each blob carries its own
  /// monotonic counter so draws are traffic-order independent).
  struct PutFate {
    bool fail = false;        ///< report an error, nothing lands
    bool lost = false;        ///< ack success, object vanishes
    std::size_t landed = 0;   ///< bytes that actually land (< size = torn)
  };
  [[nodiscard]] PutFate draw_put_fate(const BlobRef& ref, std::size_t size,
                                      std::uint64_t sequence);

  /// Applies the slow-backend draw for one op: tallies, and sleeps
  /// config().slow_backend_ms when configured.
  void maybe_slow_op(const BlobRef& ref, std::uint64_t sequence);

  fbf::util::FaultInjector* faults_ = nullptr;
};

}  // namespace fbf::storage
