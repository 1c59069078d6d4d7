#include "storage/chain.hpp"

#include <set>

#include "util/rng.hpp"
#include "util/wire.hpp"

namespace fbf::storage {

namespace u = fbf::util;
using u::wire::put;
using u::wire::put_string;
using u::wire::Reader;

constexpr std::uint64_t kManifestMagic = 0x314E414D46424600ull;  // "\0FBFMAN1"

std::string seal_envelope(std::uint64_t magic, std::uint32_t version,
                          std::string_view payload) {
  std::string blob;
  put<std::uint64_t>(blob, magic);
  put<std::uint32_t>(blob, version);
  put<std::uint64_t>(blob, payload.size());
  put<std::uint64_t>(blob, u::fnv1a64(payload));
  blob += payload;
  return blob;
}

u::Result<std::string_view> open_envelope(std::string_view bytes,
                                          std::uint64_t magic,
                                          std::uint32_t version,
                                          const char* what) {
  const std::string kind(what);
  if (bytes.size() < kEnvelopeBytes) {
    return u::Status::data_loss(kind + " header truncated at byte " +
                                std::to_string(bytes.size()));
  }
  Reader h{bytes.substr(0, kEnvelopeBytes)};
  std::uint64_t got_magic = 0;
  std::uint32_t got_version = 0;
  std::uint64_t size = 0;
  std::uint64_t checksum = 0;
  h.get(got_magic);
  h.get(got_version);
  h.get(size);
  h.get(checksum);
  const std::string_view payload = bytes.substr(kEnvelopeBytes);
  const char* wrong = got_magic != magic       ? " has a bad magic"
                      : got_version != version ? " has an unsupported version"
                      : size > kMaxPayloadBytes ? " has an implausible size"
                      : payload.size() < size  ? " payload is truncated"
                      : payload.size() > size  ? " has trailing bytes"
                      : u::fnv1a64(payload) != checksum ? " checksum mismatch"
                                                        : nullptr;
  if (wrong != nullptr) {
    return u::Status::data_loss(kind + wrong);
  }
  return payload;
}

std::string base_blob_name(std::uint64_t position) {
  return "base-" + std::to_string(position) + ".snap";
}

std::string delta_blob_name(std::uint64_t from, std::uint64_t to) {
  return "delta-" + std::to_string(from) + "-" + std::to_string(to) + ".seg";
}

std::string encode_manifest(const ChainManifest& manifest) {
  std::string payload;
  put_string(payload, manifest.base_blob);
  put<std::uint64_t>(payload, manifest.base_batches);
  put<std::uint64_t>(payload, manifest.base_records);
  put<std::uint32_t>(payload,
                     static_cast<std::uint32_t>(manifest.deltas.size()));
  for (const auto& seg : manifest.deltas) {
    put_string(payload, seg.blob);
    put<std::uint64_t>(payload, seg.from_batches);
    put<std::uint64_t>(payload, seg.to_batches);
    put<std::uint64_t>(payload, seg.from_record);
    put<std::uint64_t>(payload, seg.to_record);
  }
  return seal_envelope(kManifestMagic, kManifestVersion, payload);
}

u::Result<ChainManifest> decode_manifest(std::string_view bytes) {
  auto payload =
      open_envelope(bytes, kManifestMagic, kManifestVersion, "manifest");
  if (!payload.ok()) {
    return payload.status();
  }
  Reader r{payload.value()};
  ChainManifest manifest;
  std::uint32_t n_deltas = 0;
  if (!r.get_string(manifest.base_blob) || !r.get(manifest.base_batches) ||
      !r.get(manifest.base_records) || !r.get(n_deltas)) {
    return u::Status::data_loss("manifest payload malformed");
  }
  std::uint64_t batches = manifest.base_batches;
  std::uint64_t records = manifest.base_records;
  for (std::uint32_t i = 0; i < n_deltas; ++i) {
    ChainManifest::Segment seg;
    if (!r.get_string(seg.blob) || !r.get(seg.from_batches) ||
        !r.get(seg.to_batches) || !r.get(seg.from_record) ||
        !r.get(seg.to_record)) {
      return u::Status::data_loss("manifest segment " + std::to_string(i) +
                                  " malformed");
    }
    // The chain must be contiguous: each delta starts exactly where the
    // previous coverage ended, in positions AND records.
    if (seg.from_batches != batches || seg.from_record != records ||
        seg.to_batches < seg.from_batches ||
        seg.to_record < seg.from_record) {
      return u::Status::data_loss("manifest segment " + std::to_string(i) +
                                  " breaks the coverage chain");
    }
    batches = seg.to_batches;
    records = seg.to_record;
    manifest.deltas.push_back(std::move(seg));
  }
  if (!r.done()) {
    return u::Status::data_loss("manifest payload has trailing bytes");
  }
  return manifest;
}

u::Result<ChainManifest> CheckpointChain::read_manifest() {
  auto bytes = backend_.get(manifest_ref());
  return bytes.ok() ? decode_manifest(bytes.value())
                    : u::Result<ChainManifest>(bytes.status());
}

u::Result<std::string> CheckpointChain::commit(const ChainManifest* current,
                                               const ChainManifest& next,
                                               std::string_view name,
                                               std::string_view bytes,
                                               const BlobCheck& check) {
  const BlobRef blob = ref(name);
  // The bytes that actually landed are verified before the manifest is
  // touched, so a lost, torn or corrupt blob costs the commit, never the
  // chain.
  u::Status landed = backend_.put(blob, bytes);
  if (landed.ok()) {
    auto back = backend_.get(blob);
    landed = back.ok() ? check(back.value()) : back.status();
  }
  if (!landed.ok()) {
    (void)backend_.remove(blob);
    return landed;
  }
  // Atomic manifest swap, then verify it landed byte for byte: a
  // manifest the backend lost or tore would orphan the whole chain.
  std::string manifest = encode_manifest(next);
  u::Status swapped = backend_.put(manifest_ref(), manifest);
  if (swapped.ok()) {
    auto back = backend_.get(manifest_ref());
    swapped = !back.ok()                 ? back.status()
              : back.value() == manifest ? u::Status{}
                                         : u::Status::data_loss(
                                               "manifest read back differs");
  }
  if (!swapped.ok()) {
    (void)backend_.remove(blob);
    if (current != nullptr) {
      (void)backend_.put(manifest_ref(), encode_manifest(*current));
    } else {
      (void)backend_.remove(manifest_ref());
    }
    return swapped;
  }
  return manifest;
}

u::Status CheckpointChain::walk(const ChainManifest& manifest,
                                const BlobCheck& on_base,
                                const SegmentVisitor& on_delta) {
  for (std::size_t i = 0; i <= manifest.deltas.size(); ++i) {
    const std::string& name =
        i == 0 ? manifest.base_blob : manifest.deltas[i - 1].blob;
    auto bytes = backend_.get(ref(name));
    if (!bytes.ok()) {
      return u::Status::data_loss("manifest names missing blob " + name +
                                  ": " + bytes.status().message());
    }
    const u::Status visited = i == 0
                                  ? on_base(bytes.value())
                                  : on_delta(manifest.deltas[i - 1],
                                             bytes.value());
    if (!visited.ok()) {
      return visited;
    }
  }
  return {};
}

void CheckpointChain::sweep(const ChainManifest& live) {
  std::set<std::string, std::less<>> names;
  names.insert(live.base_blob);
  for (const auto& seg : live.deltas) {
    names.insert(seg.blob);
  }
  for (const char* kind : {"base-", "delta-"}) {
    auto blobs = backend_.list(prefix_ + kind);
    if (!blobs.ok()) {
      continue;  // orphans cost space, not correctness
    }
    for (const BlobRef& blob : blobs.value()) {
      if (names.find(std::string_view(blob.name).substr(prefix_.size())) ==
          names.end()) {
        (void)backend_.remove(blob);
      }
    }
  }
}

u::Status CheckpointChain::drop() {
  // MANIFEST first: a drop cut short leaves unreferenced blobs, never a
  // manifest naming blobs that are gone.
  if (u::Status st = backend_.remove(manifest_ref()); !st.ok()) {
    return st;
  }
  auto blobs = backend_.list(prefix_);
  if (!blobs.ok()) {
    return blobs.status();
  }
  for (const BlobRef& blob : blobs.value()) {
    if (u::Status st = backend_.remove(blob); !st.ok()) {
      return st;
    }
  }
  return {};
}

}  // namespace fbf::storage
