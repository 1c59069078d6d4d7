#include "linkage/snapshot.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <set>
#include <utility>

#include "linkage/record_codec.hpp"
#include "storage/local_dir.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/wire.hpp"

namespace fbf::linkage {

namespace u = fbf::util;

namespace {

// Byte-level encoding (host-endian, length-prefixed) comes from
// util::wire; the record/signature layout is shared with the network
// shard protocol via linkage/record_codec.
using fbf::util::wire::put;
using fbf::util::wire::put_string;
using fbf::util::wire::Reader;
using wire::get_record;
using wire::get_signatures;
using wire::put_record;
using wire::put_signatures;

constexpr std::uint64_t kSnapshotMagic = 0x31504E5346424600ull;  // "\0FBFSNP1"
constexpr std::uint64_t kDeltaMagic = 0x31544C4446424600ull;     // "\0FBFDLT1"
constexpr std::uint64_t kManifestMagic = 0x314E414D46424600ull;  // "\0FBFMAN1"
constexpr std::uint32_t kFrameMagic = 0x4C4E524Au;               // "JRNL"
// A payload larger than this is structurally implausible for this store
// and is rejected outright, so a lying length field in a damaged header
// can never force a giant allocation.
constexpr std::uint64_t kMaxPayloadBytes = 1ull << 30;

double steady_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// 28-byte envelope shared by snapshot/delta/manifest blobs: magic,
/// version, payload size, payload checksum.  One writer, one reader — a
/// blob kind can never disagree with itself about layout.
std::string seal_envelope(std::uint64_t magic, std::uint32_t version,
                          std::string payload) {
  std::string blob;
  put<std::uint64_t>(blob, magic);
  put<std::uint32_t>(blob, version);
  put<std::uint64_t>(blob, payload.size());
  put<std::uint64_t>(blob, u::fnv1a64(payload));
  blob += payload;
  return blob;
}

/// Validates the envelope of `bytes` and returns the checksum-verified
/// payload.  kDataLoss on anything wrong — truncation, bad magic,
/// unsupported version, checksum mismatch.
u::Result<std::string_view> open_envelope(std::string_view bytes,
                                          std::uint64_t magic,
                                          std::uint32_t version,
                                          const char* what) {
  const std::string kind(what);
  if (bytes.size() < 28) {
    return u::Status::data_loss(kind + " header truncated at byte " +
                                std::to_string(bytes.size()));
  }
  Reader h{bytes.substr(0, 28)};
  std::uint64_t got_magic = 0;
  std::uint32_t got_version = 0;
  std::uint64_t payload_size = 0;
  std::uint64_t checksum = 0;
  h.get(got_magic);
  h.get(got_version);
  h.get(payload_size);
  h.get(checksum);
  if (got_magic != magic) {
    return u::Status::data_loss("bad " + kind + " magic");
  }
  if (got_version != version) {
    return u::Status::data_loss("unsupported " + kind + " version " +
                                std::to_string(got_version));
  }
  if (payload_size > kMaxPayloadBytes) {
    return u::Status::data_loss("implausible " + kind + " payload size");
  }
  if (bytes.size() - 28 < payload_size) {
    return u::Status::data_loss(kind + " payload truncated: " +
                                std::to_string(bytes.size() - 28) + " of " +
                                std::to_string(payload_size) + " bytes");
  }
  if (bytes.size() - 28 > payload_size) {
    return u::Status::data_loss(kind + " has trailing bytes");
  }
  const std::string_view payload = bytes.substr(28, payload_size);
  if (u::fnv1a64(payload) != checksum) {
    return u::Status::data_loss(kind + " checksum mismatch");
  }
  return payload;
}

std::string encode_batch(std::span<const PersonRecord> batch) {
  std::string payload;
  put<std::uint64_t>(payload, batch.size());
  for (const PersonRecord& r : batch) {
    put_record(payload, r);
  }
  return payload;
}

/// A base snapshot's payload header.
struct SnapshotHeader {
  std::uint64_t batches_ingested = 0;
  std::uint32_t entity_total = 0;
  std::uint64_t n_records = 0;
};

/// Walks a base snapshot one record at a time: on_record(record, entity,
/// sigs) gets each record decoded into one reused PersonRecord (and
/// RecordSignatures; sigs is nullptr when the snapshot keeps none), in
/// order.  Runs every structural check a restore relies on — envelope,
/// header, each record and signature, entity id < entity_total, no
/// trailing bytes — so a blob that passes restores cleanly.  kDataLoss on
/// the first failure.
template <typename OnRecord>
u::Result<SnapshotHeader> walk_snapshot(std::string_view bytes,
                                        OnRecord&& on_record) {
  auto payload =
      open_envelope(bytes, kSnapshotMagic, kSnapshotVersion, "snapshot");
  if (!payload.ok()) {
    return payload.status();
  }
  Reader r{payload.value()};
  SnapshotHeader header;
  std::uint8_t has_sigs = 0;
  if (!r.get(header.batches_ingested) || !r.get(header.entity_total) ||
      !r.get(has_sigs) || !r.get(header.n_records)) {
    return u::Status::data_loss("snapshot payload header malformed");
  }
  PersonRecord rec;
  RecordSignatures sigs;
  for (std::uint64_t i = 0; i < header.n_records; ++i) {
    std::uint32_t entity = 0;
    if (!get_record(r, rec) || !r.get(entity)) {
      return u::Status::data_loss("snapshot record " + std::to_string(i) +
                                  " malformed");
    }
    if (has_sigs != 0 && !get_signatures(r, sigs)) {
      return u::Status::data_loss("snapshot signatures " +
                                  std::to_string(i) + " malformed");
    }
    if (entity >= header.entity_total) {
      return u::Status::data_loss(
          "snapshot inconsistent: entity id " + std::to_string(entity) +
          " >= entity total " + std::to_string(header.entity_total));
    }
    on_record(rec, entity, has_sigs != 0 ? &sigs : nullptr);
  }
  if (!r.done()) {
    return u::Status::data_loss("snapshot payload has trailing bytes");
  }
  return header;
}

/// The decoded pieces of a base snapshot, before they become a store.
struct SnapshotParts {
  SnapshotHeader header;
  std::vector<PersonRecord> records;
  std::vector<std::uint32_t> entity_ids;
  std::vector<RecordSignatures> signatures;
};

u::Result<SnapshotParts> decode_snapshot_parts(std::string_view bytes) {
  SnapshotParts parts;
  auto header = walk_snapshot(
      bytes, [&](PersonRecord& rec, std::uint32_t entity,
                 const RecordSignatures* sigs) {
        parts.records.push_back(std::move(rec));
        parts.entity_ids.push_back(entity);
        if (sigs != nullptr) {
          parts.signatures.push_back(*sigs);
        }
      });
  if (!header.ok()) {
    return header.status();
  }
  parts.header = header.value();
  return parts;
}

/// The checkpoint's read-back check of a landed base: the whole of
/// decode_snapshot_parts' validation with nothing kept, so verifying a
/// base costs no second copy of the store.
u::Status validate_snapshot(std::string_view bytes) {
  return walk_snapshot(bytes, [](const PersonRecord&, std::uint32_t,
                                 const RecordSignatures*) {})
      .status();
}

}  // namespace

// --- snapshot ----------------------------------------------------------

std::string encode_snapshot(const EntityStore& store,
                            std::uint64_t batches_ingested) {
  const bool has_sigs =
      store.uses_fbf() && store.signatures().size() == store.records().size();
  std::string payload;
  put<std::uint64_t>(payload, batches_ingested);
  put<std::uint32_t>(payload, static_cast<std::uint32_t>(store.entity_count()));
  put<std::uint8_t>(payload, has_sigs ? 1 : 0);
  put<std::uint64_t>(payload, store.size());
  for (std::size_t i = 0; i < store.size(); ++i) {
    put_record(payload, store.records()[i]);
    put<std::uint32_t>(payload, store.entity_ids()[i]);
    if (has_sigs) {
      put_signatures(payload, store.signatures()[i]);
    }
  }
  return seal_envelope(kSnapshotMagic, kSnapshotVersion, std::move(payload));
}

u::Result<std::uint64_t> decode_snapshot(std::string_view bytes,
                                         EntityStore& store) {
  auto parts = decode_snapshot_parts(bytes);
  if (!parts.ok()) {
    return parts.status();
  }
  u::Status restored = store.restore(
      std::move(parts->records), std::move(parts->entity_ids),
      parts->header.entity_total, std::move(parts->signatures));
  if (!restored.ok()) {
    return u::Status::data_loss("snapshot inconsistent: " +
                                restored.message());
  }
  return parts->header.batches_ingested;
}

// --- delta segments ----------------------------------------------------

std::string encode_delta(const EntityStore& store, std::size_t from_record,
                         std::uint64_t from_batches,
                         std::uint64_t to_batches) {
  const bool has_sigs =
      store.uses_fbf() && store.signatures().size() == store.records().size();
  const std::size_t n = store.size() - from_record;
  std::string payload;
  put<std::uint64_t>(payload, from_batches);
  put<std::uint64_t>(payload, to_batches);
  put<std::uint64_t>(payload, from_record);
  put<std::uint32_t>(payload, static_cast<std::uint32_t>(store.entity_count()));
  put<std::uint8_t>(payload, has_sigs ? 1 : 0);
  put<std::uint64_t>(payload, n);
  for (std::size_t i = from_record; i < store.size(); ++i) {
    put_record(payload, store.records()[i]);
    put<std::uint32_t>(payload, store.entity_ids()[i]);
    if (has_sigs) {
      put_signatures(payload, store.signatures()[i]);
    }
  }
  return seal_envelope(kDeltaMagic, kDeltaVersion, std::move(payload));
}

u::Result<DeltaSegment> decode_delta(std::string_view bytes) {
  auto payload = open_envelope(bytes, kDeltaMagic, kDeltaVersion, "delta");
  if (!payload.ok()) {
    return payload.status();
  }
  Reader r{payload.value()};
  DeltaSegment seg;
  std::uint8_t has_sigs = 0;
  std::uint64_t n_records = 0;
  if (!r.get(seg.from_batches) || !r.get(seg.to_batches) ||
      !r.get(seg.from_record) || !r.get(seg.entity_total) ||
      !r.get(has_sigs) || !r.get(n_records)) {
    return u::Status::data_loss("delta payload header malformed");
  }
  seg.records.reserve(static_cast<std::size_t>(n_records));
  seg.entity_ids.reserve(static_cast<std::size_t>(n_records));
  for (std::uint64_t i = 0; i < n_records; ++i) {
    PersonRecord rec;
    std::uint32_t entity = 0;
    if (!get_record(r, rec) || !r.get(entity)) {
      return u::Status::data_loss("delta record " + std::to_string(i) +
                                  " malformed");
    }
    seg.records.push_back(std::move(rec));
    seg.entity_ids.push_back(entity);
    if (has_sigs != 0) {
      RecordSignatures sigs;
      if (!get_signatures(r, sigs)) {
        return u::Status::data_loss("delta signatures " + std::to_string(i) +
                                    " malformed");
      }
      seg.signatures.push_back(sigs);
    }
  }
  if (!r.done()) {
    return u::Status::data_loss("delta payload has trailing bytes");
  }
  return seg;
}

// --- manifest ----------------------------------------------------------

std::string encode_manifest(const SnapshotManifest& manifest) {
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
  return seal_envelope(kManifestMagic, kManifestVersion, std::move(payload));
}

u::Result<SnapshotManifest> decode_manifest(std::string_view bytes) {
  auto payload =
      open_envelope(bytes, kManifestMagic, kManifestVersion, "manifest");
  if (!payload.ok()) {
    return payload.status();
  }
  Reader r{payload.value()};
  SnapshotManifest manifest;
  std::uint32_t n_deltas = 0;
  if (!r.get_string(manifest.base_blob) || !r.get(manifest.base_batches) ||
      !r.get(manifest.base_records) || !r.get(n_deltas)) {
    return u::Status::data_loss("manifest payload malformed");
  }
  std::uint64_t batches = manifest.base_batches;
  std::uint64_t records = manifest.base_records;
  for (std::uint32_t i = 0; i < n_deltas; ++i) {
    SnapshotManifest::Segment seg;
    if (!r.get_string(seg.blob) || !r.get(seg.from_batches) ||
        !r.get(seg.to_batches) || !r.get(seg.from_record) ||
        !r.get(seg.to_record)) {
      return u::Status::data_loss("manifest segment " + std::to_string(i) +
                                  " malformed");
    }
    // The chain must be contiguous: each delta starts exactly where the
    // previous coverage ended, in batches AND records.
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

// --- journal -----------------------------------------------------------

std::string encode_journal_frame(std::uint64_t seq,
                                 std::span<const PersonRecord> batch) {
  const std::string payload = encode_batch(batch);
  std::string frame;
  put<std::uint32_t>(frame, kFrameMagic);
  put<std::uint64_t>(frame, seq);
  put<std::uint64_t>(frame, payload.size());
  put<std::uint64_t>(frame, u::fnv1a64(payload));
  frame += payload;
  return frame;
}

JournalReplay replay_journal(std::string_view bytes) {
  JournalReplay replay;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t left = bytes.size() - pos;
    if (left < 28) {
      replay.dropped_tail_bytes += left;  // 0 at a clean end
      return replay;
    }
    Reader h{bytes.substr(pos, 28)};
    std::uint32_t magic = 0;
    std::uint64_t seq = 0;
    std::uint64_t payload_size = 0;
    std::uint64_t checksum = 0;
    h.get(magic);
    h.get(seq);
    h.get(payload_size);
    h.get(checksum);
    if (magic != kFrameMagic || payload_size > kMaxPayloadBytes ||
        left - 28 < payload_size) {
      replay.dropped_tail_bytes += left;
      return replay;  // damaged/cut frame: stop at the intact prefix
    }
    const std::string_view payload = bytes.substr(pos + 28, payload_size);
    if (u::fnv1a64(payload) != checksum) {
      replay.dropped_tail_bytes += left;
      return replay;
    }
    Reader r{payload};
    std::uint64_t n = 0;
    if (!r.get(n)) {
      replay.dropped_tail_bytes += left;
      return replay;
    }
    JournalFrame frame;
    frame.seq = seq;
    frame.batch.reserve(static_cast<std::size_t>(n));
    bool intact = true;
    for (std::uint64_t i = 0; i < n; ++i) {
      PersonRecord rec;
      if (!get_record(r, rec)) {
        intact = false;
        break;
      }
      frame.batch.push_back(std::move(rec));
    }
    if (!intact || !r.done()) {
      replay.dropped_tail_bytes += left;
      return replay;
    }
    replay.frames.push_back(std::move(frame));
    pos += 28 + payload_size;
  }
}

// --- blob level --------------------------------------------------------

u::Status write_snapshot(storage::StorageBackend& backend,
                         const storage::BlobRef& ref, const EntityStore& store,
                         std::uint64_t batches_ingested) {
  return backend.put(ref, encode_snapshot(store, batches_ingested));
}

u::Result<std::uint64_t> read_snapshot(storage::StorageBackend& backend,
                                       const storage::BlobRef& ref,
                                       EntityStore& store) {
  auto bytes = backend.get(ref);
  if (!bytes.ok()) {
    return bytes.status();
  }
  return decode_snapshot(bytes.value(), store);
}

// --- durable store -----------------------------------------------------

DurableEntityStore::DurableEntityStore(
    ComparatorConfig comparator,
    std::shared_ptr<storage::StorageBackend> backend, DurabilityPolicy policy,
    EntityStoreOptions options)
    : comparator_(comparator),
      backend_(std::move(backend)),
      policy_(std::move(policy)),
      options_(options),
      store_(std::move(comparator), options) {}

DurableEntityStore::~DurableEntityStore() {
  if (journal_ != nullptr && !crashed_) {
    (void)journal_->sync();  // best effort: close the durability window
  }
}

void DurableEntityStore::simulate_crash() {
  journal_.reset();  // pending (unsynced) appends die with the "process"
  crashed_ = true;
}

u::Status DurableEntityStore::ensure_journal() {
  if (journal_ != nullptr) {
    return {};
  }
  auto handle = backend_->open_append(policy_.journal_ref(),
                                      /*truncate=*/false);
  if (!handle.ok()) {
    return handle.status();
  }
  journal_ = std::move(handle.value());
  return {};
}

u::Status DurableEntityStore::sync_journal() {
  if (journal_ == nullptr || pending_appends_ == 0) {
    return {};
  }
  u::Status synced = journal_->sync();
  ++stats_.journal_syncs;
  if (!synced.ok()) {
    stats_.last_error = synced.to_string();
    return synced;
  }
  pending_appends_ = 0;
  return {};
}

u::Result<IngestStats> DurableEntityStore::ingest(
    std::span<const PersonRecord> batch) {
  if (crashed_) {
    return u::Status::failed_precondition(
        "store crashed (simulate_crash); recover through a fresh instance");
  }
  // Write-ahead: the frame enters the journal before the store mutates,
  // so a crash between the two replays the batch instead of losing it.
  // Under group commit the frame may sit unsynced for up to
  // (max_batch - 1) further appends or max_delay_ms — the configured
  // durability window.
  {
    u::Status opened = ensure_journal();
    if (!opened.ok()) {
      return opened;
    }
    const std::string frame = encode_journal_frame(batches_ingested_, batch);
    std::size_t write_size = frame.size();
    if (auto* faults = backend_->faults()) {
      // Pre-storage-layer fault site, kept keyed exactly as before:
      // (site "journal", sequence = batch position).
      write_size =
          faults->truncated_size(frame.size(), "journal", batches_ingested_);
    }
    u::Status appended = journal_->append(
        std::string_view(frame).substr(0, write_size));
    if (!appended.ok()) {
      return appended;
    }
    ++stats_.journal_appends;
    if (pending_appends_ == 0) {
      pending_since_ms_ = steady_ms();
    }
    ++pending_appends_;
    if (write_size != frame.size()) {
      // The injected crash cut the append short: force it to disk and
      // treat the writer as dead — callers recover() to continue.
      (void)sync_journal();
      crashed_ = true;
      return u::Status::unavailable(
          "journal append truncated (injected crash) at seq " +
          std::to_string(batches_ingested_));
    }
    const bool batch_full =
        pending_appends_ >= std::max<std::size_t>(1, policy_.group_commit.max_batch);
    const bool timer_due =
        policy_.group_commit.max_delay_ms > 0.0 &&
        steady_ms() - pending_since_ms_ >= policy_.group_commit.max_delay_ms;
    if (batch_full || timer_due) {
      u::Status synced = sync_journal();
      if (!synced.ok()) {
        // A torn sync is the modeled crash: acknowledged-but-unsynced
        // batches inside the group-commit window are gone; recovery
        // replays the durable prefix.
        crashed_ = synced.code() == u::StatusCode::kUnavailable;
        return synced;
      }
    }
  }
  IngestStats stats = store_.ingest(batch);
  ++batches_ingested_;
  if (policy_.checkpoint_every > 0 &&
      batches_ingested_ - last_checkpoint_batch_ >= policy_.checkpoint_every) {
    u::Status checked = checkpoint();
    if (!checked.ok()) {
      // Degrade: journal intact, nothing lost.  last_checkpoint_batch_
      // stays put, so the VERY NEXT batch retries instead of waiting out
      // another full interval against a possibly-recovered backend.
      ++stats_.checkpoint_failures;
      stats_.last_error = checked.to_string();
    }
  }
  return stats;
}

u::Status DurableEntityStore::checkpoint() {
  const std::uint64_t to_batches = batches_ingested_;
  const std::uint64_t from_batches = manifest_.batches_covered();
  const std::uint64_t from_record = manifest_.records_covered();
  const bool have_base = !manifest_.base_blob.empty();
  if (have_base && from_batches == to_batches &&
      from_record == store_.size()) {
    return {};  // nothing new since the last checkpoint
  }
  // Full base when none exists yet, or when compaction triggers: by
  // count (compact_every deltas) or by size (the deltas together now
  // out-weigh the base, so folding halves recovery's read volume).
  const bool count_trigger = policy_.compact_every > 0 &&
                             manifest_.deltas.size() >= policy_.compact_every;
  const bool size_trigger =
      have_base && manifest_.base_records > 0 &&
      store_.size() - manifest_.base_records >= manifest_.base_records;
  const bool full = !have_base || count_trigger || size_trigger;

  SnapshotManifest next = manifest_;
  storage::BlobRef blob;
  std::string bytes;
  if (full) {
    blob = policy_.base_ref(to_batches);
    bytes = encode_snapshot(store_, to_batches);
    next.base_blob = blob.name;
    next.base_batches = to_batches;
    next.base_records = store_.size();
    next.deltas.clear();
  } else {
    blob = policy_.delta_ref(from_batches, to_batches);
    bytes = encode_delta(store_, static_cast<std::size_t>(from_record),
                         from_batches, to_batches);
    next.deltas.push_back({blob.name, from_batches, to_batches, from_record,
                           store_.size()});
  }
  if (auto* faults = backend_->faults()) {
    (void)faults->corrupt_bytes(bytes, "snapshot", to_batches);
  }
  u::Status putted = backend_->put(blob, bytes);
  if (!putted.ok()) {
    return putted;
  }
  // Verify the bytes that actually landed before the manifest or the
  // journal is touched — a corrupt/lost/torn checkpoint must cost
  // nothing.
  {
    auto landed = backend_->get(blob);
    u::Status verified;
    if (!landed.ok()) {
      verified = landed.status();
    } else if (full) {
      verified = validate_snapshot(landed.value());
    } else {
      verified = decode_delta(landed.value()).status();
    }
    if (!verified.ok()) {
      (void)backend_->remove(blob);
      return verified;
    }
  }
  // Atomic manifest swap, then verify it landed intact; a manifest the
  // backend lost or tore would orphan the whole chain, so a failed
  // verify restores the previous manifest and reports the checkpoint
  // failed.
  u::Status mput = backend_->put(policy_.manifest_ref(), encode_manifest(next));
  if (mput.ok()) {
    auto mback = backend_->get(policy_.manifest_ref());
    if (!mback.ok()) {
      mput = mback.status();
    } else {
      mput = decode_manifest(mback.value()).status();
    }
  }
  if (!mput.ok()) {
    (void)backend_->remove(blob);
    if (have_base) {
      (void)backend_->put(policy_.manifest_ref(), encode_manifest(manifest_));
    } else {
      (void)backend_->remove(policy_.manifest_ref());
    }
    return mput;
  }
  // The chain now covers every journaled batch: reset the journal.
  // Pending unsynced appends are covered by the checkpoint, so dropping
  // the old handle loses nothing.  A journal that cannot be reset is
  // non-fatal — replay skips covered frames — but gets recorded.
  journal_.reset();
  pending_appends_ = 0;
  auto fresh = backend_->open_append(policy_.journal_ref(), /*truncate=*/true);
  if (fresh.ok()) {
    journal_ = std::move(fresh.value());
  } else {
    stats_.last_error = fresh.status().to_string();
  }
  manifest_ = std::move(next);
  last_checkpoint_batch_ = to_batches;
  ++stats_.checkpoints;
  if (full) {
    if (have_base) {
      ++stats_.compactions;
    }
  } else {
    ++stats_.deltas_written;
  }
  sweep_unreferenced_blobs();
  return {};
}

void DurableEntityStore::sweep_unreferenced_blobs() {
  std::set<std::string> live;
  live.insert(manifest_.base_blob);
  for (const auto& seg : manifest_.deltas) {
    live.insert(seg.blob);
  }
  for (const char* prefix : {"base-", "delta-"}) {
    auto blobs = backend_->list(policy_.prefix + prefix);
    if (!blobs.ok()) {
      continue;  // best effort: orphans cost space, not correctness
    }
    for (const auto& ref : blobs.value()) {
      if (live.find(ref.name) == live.end()) {
        (void)backend_->remove(ref);
      }
    }
  }
}

u::Result<RecoveryReport> DurableEntityStore::recover() {
  RecoveryReport report;
  EntityStore fresh(comparator_, options_);
  std::uint64_t position = 0;
  SnapshotManifest manifest;
  bool have_manifest = false;
  {
    auto bytes = backend_->get(policy_.manifest_ref());
    if (bytes.ok()) {
      auto decoded = decode_manifest(bytes.value());
      if (!decoded.ok()) {
        return decoded.status();  // present-but-damaged manifest: data loss
      }
      manifest = std::move(decoded.value());
      have_manifest = true;
    } else if (bytes.status().code() != u::StatusCode::kNotFound) {
      return bytes.status();
    }
  }
  if (have_manifest) {
    // base -> deltas, accumulated into one restore.
    auto base_bytes = backend_->get(storage::BlobRef{manifest.base_blob});
    if (!base_bytes.ok()) {
      return u::Status::data_loss("manifest names missing base blob " +
                                  manifest.base_blob + ": " +
                                  base_bytes.status().message());
    }
    auto parts = decode_snapshot_parts(base_bytes.value());
    if (!parts.ok()) {
      return parts.status();
    }
    if (parts->header.batches_ingested != manifest.base_batches ||
        parts->records.size() != manifest.base_records) {
      return u::Status::data_loss("base blob disagrees with manifest");
    }
    std::vector<PersonRecord> records = std::move(parts->records);
    std::vector<std::uint32_t> entity_ids = std::move(parts->entity_ids);
    std::vector<RecordSignatures> signatures = std::move(parts->signatures);
    std::uint32_t entity_total = parts->header.entity_total;
    position = manifest.base_batches;
    for (const auto& entry : manifest.deltas) {
      auto delta_bytes = backend_->get(storage::BlobRef{entry.blob});
      if (!delta_bytes.ok()) {
        return u::Status::data_loss("manifest names missing delta blob " +
                                    entry.blob + ": " +
                                    delta_bytes.status().message());
      }
      auto seg = decode_delta(delta_bytes.value());
      if (!seg.ok()) {
        return seg.status();
      }
      if (seg->from_batches != position ||
          seg->from_record != records.size() ||
          seg->to_batches != entry.to_batches ||
          seg->from_batches != entry.from_batches) {
        return u::Status::data_loss("delta blob " + entry.blob +
                                    " breaks the coverage chain");
      }
      records.insert(records.end(),
                     std::make_move_iterator(seg->records.begin()),
                     std::make_move_iterator(seg->records.end()));
      entity_ids.insert(entity_ids.end(), seg->entity_ids.begin(),
                        seg->entity_ids.end());
      signatures.insert(signatures.end(),
                        std::make_move_iterator(seg->signatures.begin()),
                        std::make_move_iterator(seg->signatures.end()));
      entity_total = seg->entity_total;
      position = seg->to_batches;
      ++report.deltas_applied;
    }
    if (!signatures.empty() && signatures.size() != records.size()) {
      // Mixed sig coverage across segments cannot be restored verbatim;
      // drop and let the store recompute what the comparator needs.
      signatures.clear();
    }
    u::Status restored = fresh.restore(std::move(records),
                                       std::move(entity_ids), entity_total,
                                       std::move(signatures));
    if (!restored.ok()) {
      return u::Status::data_loss("checkpoint chain inconsistent: " +
                                  restored.message());
    }
    report.snapshot_loaded = true;
  }
  // Journal tail replay on top of the checkpoint chain.
  {
    auto bytes = backend_->get(policy_.journal_ref());
    if (!bytes.ok() && bytes.status().code() != u::StatusCode::kNotFound) {
      return bytes.status();
    }
    if (bytes.ok()) {
      JournalReplay replay = replay_journal(bytes.value());
      report.dropped_tail_bytes = replay.dropped_tail_bytes;
      std::vector<const JournalFrame*> replayed;
      for (const JournalFrame& frame : replay.frames) {
        if (frame.seq < position) {
          ++report.journal_batches_skipped;  // covered by the checkpoint
          continue;
        }
        if (frame.seq != position) {
          break;  // gap: keep the contiguous prefix only
        }
        (void)fresh.ingest(frame.batch);
        replayed.push_back(&frame);
        ++position;
        ++report.journal_batches_replayed;
      }
      // The write-ahead guarantee needs the durable journal to be
      // exactly the replayed frames: append() continues after whatever
      // is there, and replay stops at the first damaged frame — so a
      // damaged tail, pre-checkpoint leftovers or post-gap frames left
      // in place would strand every batch appended after them on the
      // next recovery.  Rewrite (atomic put) before accepting ingests.
      if (report.dropped_tail_bytes > 0 ||
          replayed.size() != replay.frames.size()) {
        std::string rewritten;
        for (const JournalFrame* frame : replayed) {
          rewritten += encode_journal_frame(frame->seq, frame->batch);
        }
        u::Status swapped = backend_->put(policy_.journal_ref(), rewritten);
        if (!swapped.ok()) {
          return swapped;
        }
      }
    }
  }
  journal_.reset();  // reopen lazily, appending after the replayed prefix
  pending_appends_ = 0;
  crashed_ = false;
  store_ = std::move(fresh);
  manifest_ = have_manifest ? std::move(manifest) : SnapshotManifest{};
  batches_ingested_ = position;
  last_checkpoint_batch_ = report.snapshot_loaded
                               ? position - report.journal_batches_replayed
                               : 0;
  report.batches_ingested = position;
  return report;
}

}  // namespace fbf::linkage
