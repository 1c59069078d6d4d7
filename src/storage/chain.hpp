// CheckpointChain — the one manifest/base/delta blob chain.
//
// Both durable structures in the repo persist the same way: the entity
// store (linkage/snapshot) keeps one chain per store, each cluster
// replica (cluster/service) one chain per partition.  This module is the
// only code that knows the layout under a chain's prefix:
//
//   MANIFEST            base + contiguous deltas, names relative to the
//                       prefix (a faithful copy has byte-equal manifests)
//   base-<B>.snap       full state covering positions [0, B)
//   delta-<F>-<T>.seg   what positions [F, T) appended
//
// Every blob is sealed in one 28-byte envelope (magic, version, payload
// size, FNV-1a of the payload), so a cut or a flipped byte is detected,
// never loaded.  Payload codecs stay with their owners, who hand the
// chain a check (commit) or visitors (walk).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "storage/backend.hpp"
#include "util/status.hpp"

namespace fbf::storage {

inline constexpr std::size_t kEnvelopeBytes = 28;
/// Larger payloads are implausible and rejected, so a lying length field
/// can never force a giant allocation.
inline constexpr std::uint64_t kMaxPayloadBytes = 1ull << 30;

/// magic u64, version u32, payload size u64, FNV-1a u64, then the payload.
[[nodiscard]] std::string seal_envelope(std::uint64_t magic,
                                        std::uint32_t version,
                                        std::string_view payload);

/// The checksum-verified payload; kDataLoss naming `what` otherwise.
[[nodiscard]] fbf::util::Result<std::string_view> open_envelope(
    std::string_view bytes, std::uint64_t magic, std::uint32_t version,
    const char* what);

inline constexpr std::uint32_t kManifestVersion = 1;
inline constexpr std::string_view kManifestName = "MANIFEST";
[[nodiscard]] std::string base_blob_name(std::uint64_t position);
[[nodiscard]] std::string delta_blob_name(std::uint64_t from,
                                          std::uint64_t to);

/// Which base plus which deltas, in order, make up the state.  Positions
/// are the owner's unit (ingested batches, replica writes).
struct ChainManifest {
  struct Segment {
    std::string blob;
    std::uint64_t from_batches = 0;
    std::uint64_t to_batches = 0;
    std::uint64_t from_record = 0;
    std::uint64_t to_record = 0;
  };
  std::string base_blob;  ///< empty = nothing committed yet
  std::uint64_t base_batches = 0;
  std::uint64_t base_records = 0;
  std::vector<Segment> deltas;

  [[nodiscard]] std::uint64_t batches_covered() const noexcept {
    return deltas.empty() ? base_batches : deltas.back().to_batches;
  }
  [[nodiscard]] std::uint64_t records_covered() const noexcept {
    return deltas.empty() ? base_records : deltas.back().to_record;
  }
};

[[nodiscard]] std::string encode_manifest(const ChainManifest& manifest);
/// kDataLoss on a damaged envelope or a gap/overlap in the chain.
[[nodiscard]] fbf::util::Result<ChainManifest> decode_manifest(
    std::string_view bytes);

/// The chain under `prefix` of a backend.  Stateless: callers pass the
/// manifest they last committed or read.
class CheckpointChain {
 public:
  using BlobCheck = std::function<fbf::util::Status(std::string_view bytes)>;
  using SegmentVisitor = std::function<fbf::util::Status(
      const ChainManifest::Segment& segment, std::string_view bytes)>;

  CheckpointChain(StorageBackend& backend, std::string prefix)
      : backend_(backend), prefix_(std::move(prefix)) {}

  [[nodiscard]] BlobRef ref(std::string_view name) const {
    return {prefix_ + std::string(name)};
  }
  [[nodiscard]] BlobRef manifest_ref() const { return ref(kManifestName); }

  /// kNotFound when the chain holds no manifest.
  [[nodiscard]] fbf::util::Result<ChainManifest> read_manifest();

  /// Makes `next` the chain: puts `bytes` as blob `name` (named by `next`,
  /// not by `current`), reads it back through `check`, swaps the MANIFEST
  /// and reads that back.  Returns the manifest bytes.  On any failure the
  /// blob is removed and the MANIFEST is `current` again (none if null).
  [[nodiscard]] fbf::util::Result<std::string> commit(
      const ChainManifest* current, const ChainManifest& next,
      std::string_view name, std::string_view bytes, const BlobCheck& check);

  /// Hands the base, then each delta in order, to its visitor; stops at
  /// the first error.  A named blob the backend lacks is kDataLoss.
  [[nodiscard]] fbf::util::Status walk(const ChainManifest& manifest,
                                       const BlobCheck& on_base,
                                       const SegmentVisitor& on_delta);

  /// Best effort: removes the base/delta blobs `live` does not name.
  void sweep(const ChainManifest& live);

  /// Removes the MANIFEST, then every blob under the prefix.
  [[nodiscard]] fbf::util::Status drop();

 private:
  StorageBackend& backend_;
  std::string prefix_;
};

}  // namespace fbf::storage
