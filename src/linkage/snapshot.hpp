// Checkpointed durability for the EntityStore, over pluggable storage.
//
// The paper's operational setting is a nightly batch pipeline (§1: the
// master list is "updated daily... approximately 8 hours per night").  A
// crash at hour 7 must not cost the night: the store persists as
// checksummed blobs in a storage::StorageBackend, and recover() rebuilds
// exactly the state after the last durable batch.  Under
// DurabilityPolicy::prefix:
//
//   MANIFEST, base-<B>.snap, delta-<F>-<T>.seg   a storage::CheckpointChain
//                       (storage/chain.hpp) over batches [0, B), [F, T)
//   journal             append-only write-ahead batch frames
//
// This file owns the payloads (snapshot, delta, journal frame) and the
// policy.  Checkpoints are *incremental*: after the first full base each
// writes only the records added since the last one, and a count/size
// trigger folds the deltas back into a fresh base.  A base or delta
// payload (v2) is a header, then a record section: u64 count and, per
// record, the record and its u32 entity id.  Blobs hold no signatures:
// recover() derives them under the reader's comparator
// (EntityStore::restore), so a store written under one layout and read
// under another still keeps the no-false-negative guarantee.
//
//   ingest(batch)  -> append journal frame (group-commit sync policy)
//                  -> apply to the in-memory store
//                  -> every N batches: checkpoint (chain commit of a delta
//                     or base, then journal reset)
//   recover()      -> manifest -> base -> deltas -> journal tail replay
//
// Journal frames replay to the longest intact prefix; a damaged
// base/delta/manifest is detected, never silently loaded.  Group commit
// batches syncs (N appends or T milliseconds); the durability window it
// opens is exactly the unsynced suffix, and replay order is
// policy-independent.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "linkage/incremental.hpp"
#include "storage/backend.hpp"
#include "storage/chain.hpp"
#include "util/status.hpp"

namespace fbf::linkage {

/// Bumped on any layout change; readers reject other versions.
/// Version 2 dropped the per-record signatures; a version-1 blob fails
/// recovery with kDataLoss.
inline constexpr std::uint32_t kSnapshotVersion = 2;
inline constexpr std::uint32_t kDeltaVersion = 2;

// --- codec: structures <-> checksummed bytes ---------------------------

/// Full-store snapshot (records and entity ids) with a versioned,
/// checksummed header.  `batches_ingested` records the
/// logical journal position the snapshot covers.
[[nodiscard]] std::string encode_snapshot(const EntityStore& store,
                                          std::uint64_t batches_ingested);

/// Decodes into `store` (constructed with the intended comparator, under
/// which restore() derives the signatures) and returns the snapshot's
/// batches_ingested position.  kDataLoss on any
/// checksum, version or structure mismatch — a corrupt snapshot is
/// detected, never loaded.
[[nodiscard]] fbf::util::Result<std::uint64_t> decode_snapshot(
    std::string_view bytes, EntityStore& store);

/// One incremental checkpoint segment: the records appended while
/// batches [from_batches, to_batches) ran, plus the entity total after
/// them.  Applies on top of a store holding exactly `from_record`
/// records.
struct DeltaSegment {
  std::uint64_t from_batches = 0;
  std::uint64_t to_batches = 0;
  std::uint64_t from_record = 0;
  std::uint32_t entity_total = 0;  ///< store-wide total AFTER this segment
  std::vector<PersonRecord> records;
  std::vector<std::uint32_t> entity_ids;
};

/// Encodes the suffix of `store` starting at record `from_record` as a
/// delta segment covering batches [from_batches, to_batches).
[[nodiscard]] std::string encode_delta(const EntityStore& store,
                                       std::size_t from_record,
                                       std::uint64_t from_batches,
                                       std::uint64_t to_batches);

[[nodiscard]] fbf::util::Result<DeltaSegment> decode_delta(
    std::string_view bytes);

/// The manifest: which base blob plus which delta segments, in order,
/// reconstruct the store.  The chain module's one codec; batches are the
/// positions.
using SnapshotManifest = storage::ChainManifest;
using storage::decode_manifest;
using storage::encode_manifest;

/// One checksummed write-ahead frame holding `batch` at position `seq`.
[[nodiscard]] std::string encode_journal_frame(
    std::uint64_t seq, std::span<const PersonRecord> batch);

/// One replayed journal frame.
struct JournalFrame {
  std::uint64_t seq = 0;
  std::vector<PersonRecord> batch;
};

struct JournalReplay {
  std::vector<JournalFrame> frames;  ///< intact frames, in order
  std::size_t dropped_tail_bytes = 0;  ///< partial/corrupt tail (crash cut)
};

/// Decodes frames until the end of `bytes` or the first damaged frame.
/// A crash mid-sync legitimately leaves a partial tail — that tail is
/// counted in `dropped_tail_bytes`, not treated as fatal, so replay
/// yields the longest intact prefix.
[[nodiscard]] JournalReplay replay_journal(std::string_view bytes);

// --- policy ------------------------------------------------------------

/// When the journal syncs.  The default — every append — is the
/// fsync-per-batch behavior of the pre-storage layer.  Raising max_batch
/// (or setting max_delay_ms) amortizes one sync across many small
/// batches; the cost is a durability window of at most that many
/// acknowledged-but-unsynced batches on a crash.  Replay ORDER is
/// policy-independent: whatever prefix survives, entity ids come out
/// identical to an uninterrupted run over that prefix.
struct GroupCommitPolicy {
  std::size_t max_batch = 1;  ///< sync after this many appends
  double max_delay_ms = 0.0;  ///< also sync when the oldest pending append
                              ///< is this old (0 = no timer)
};

/// Durability policy for a checkpointed store: blob naming, checkpoint
/// cadence, compaction trigger and journal sync batching.
struct DurabilityPolicy {
  /// Prepended to every blob name ("" = backend root).
  std::string prefix;
  /// Batches between automatic checkpoints; 0 = checkpoint() manually.
  std::size_t checkpoint_every = 4;
  /// Fold deltas into a fresh base after this many segments (0 = never
  /// by count).  Compaction also fires when the deltas together hold
  /// more records than the base (size trigger).
  std::size_t compact_every = 8;
  GroupCommitPolicy group_commit;

  [[nodiscard]] storage::BlobRef manifest_ref() const {
    return {prefix + std::string(storage::kManifestName)};
  }
  [[nodiscard]] storage::BlobRef journal_ref() const {
    return {prefix + "journal"};
  }
  [[nodiscard]] storage::BlobRef base_ref(std::uint64_t batches) const {
    return {prefix + storage::base_blob_name(batches)};
  }
  [[nodiscard]] storage::BlobRef delta_ref(std::uint64_t from,
                                           std::uint64_t to) const {
    return {prefix + storage::delta_blob_name(from, to)};
  }
};

/// Degradation accounting, ElasticResult-style: a durable store keeps
/// serving through backend trouble, and this is what the trouble cost.
struct DurabilityStats {
  std::uint64_t checkpoints = 0;          ///< successful (base or delta)
  std::uint64_t checkpoint_failures = 0;  ///< failed attempts (retried on
                                          ///< the very next batch)
  std::uint64_t deltas_written = 0;
  std::uint64_t compactions = 0;  ///< deltas folded into a new base
  std::uint64_t journal_appends = 0;
  std::uint64_t journal_syncs = 0;  ///< < appends under group commit
  std::string last_error;  ///< most recent checkpoint/journal failure
};

/// What recover() found in the backend.
struct RecoveryReport {
  bool snapshot_loaded = false;  ///< a manifest's base loaded
  std::size_t deltas_applied = 0;
  std::size_t journal_batches_replayed = 0;
  std::size_t journal_batches_skipped = 0;  ///< pre-checkpoint leftovers
  std::size_t dropped_tail_bytes = 0;
  std::uint64_t batches_ingested = 0;  ///< logical position after recovery
};

/// EntityStore wrapper that survives crashes: write-ahead journaling per
/// batch (group-commit sync policy), incremental checkpoints, and
/// prefix-consistent recovery — against any StorageBackend.
class DurableEntityStore {
 public:
  /// `options` configures the in-memory store (and the one recover()
  /// rebuilds): threads and candidate generator.
  DurableEntityStore(ComparatorConfig comparator,
                     std::shared_ptr<storage::StorageBackend> backend,
                     DurabilityPolicy policy = {},
                     EntityStoreOptions options = {});

  /// Best-effort sync of pending journal appends (see simulate_crash()).
  ~DurableEntityStore();

  DurableEntityStore(const DurableEntityStore&) = delete;
  DurableEntityStore& operator=(const DurableEntityStore&) = delete;

  /// Journals the batch (synced per the group-commit policy), ingests
  /// it, then checkpoints when the policy says so.  A failed *checkpoint*
  /// degrades (counted in stats(), journal kept, retried on the next
  /// batch) rather than failing the ingest; a failed journal append
  /// fails the ingest before the store changes.
  [[nodiscard]] fbf::util::Result<IngestStats> ingest(
      std::span<const PersonRecord> batch);

  /// Checkpoint now: a chain commit of the records added since the last
  /// checkpoint (a full base when none exists / compaction triggers),
  /// then a journal reset.  The blob is read back through the decoder's
  /// and restore()'s checks (a base is walked without building a store),
  /// so an injected corruption loses a checkpoint, never data.
  [[nodiscard]] fbf::util::Status checkpoint();

  /// Rebuilds in-memory state from the backend: manifest -> base ->
  /// deltas -> journal tail; an empty backend is a cold start.  kDataLoss,
  /// journal untouched, when the journal resumes past the chain's end (a
  /// lost MANIFEST is not a cold start).  A journal holding more than the
  /// replayed frames (damaged tail, pre-checkpoint leftovers) is rewritten
  /// to exactly them, so a second crash cannot lose later batches.
  [[nodiscard]] fbf::util::Result<RecoveryReport> recover();

  /// Test hook: abandon the journal handle WITHOUT syncing pending
  /// group-commit appends — models kill -9 at this instant.  The store
  /// refuses further ingests; recover through a fresh instance.
  void simulate_crash();

  [[nodiscard]] const EntityStore& store() const noexcept { return store_; }
  [[nodiscard]] std::uint64_t batches_ingested() const noexcept {
    return batches_ingested_;
  }
  [[nodiscard]] std::uint64_t checkpoint_failures() const noexcept {
    return stats_.checkpoint_failures;
  }
  [[nodiscard]] const DurabilityStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] const DurabilityPolicy& policy() const noexcept {
    return policy_;
  }
  [[nodiscard]] const SnapshotManifest& manifest() const noexcept {
    return manifest_;
  }
  [[nodiscard]] const std::shared_ptr<storage::StorageBackend>& backend()
      const noexcept {
    return backend_;
  }

 private:
  [[nodiscard]] fbf::util::Status ensure_journal();
  [[nodiscard]] fbf::util::Status sync_journal();

  ComparatorConfig comparator_;
  std::shared_ptr<storage::StorageBackend> backend_;
  DurabilityPolicy policy_;
  storage::CheckpointChain chain_;  ///< over *backend_, under policy_.prefix
  EntityStoreOptions options_;
  EntityStore store_;
  SnapshotManifest manifest_;
  std::unique_ptr<storage::AppendHandle> journal_;
  std::uint64_t batches_ingested_ = 0;
  std::uint64_t last_checkpoint_batch_ = 0;
  std::size_t pending_appends_ = 0;
  double pending_since_ms_ = 0.0;  ///< steady-clock stamp of oldest pending
  bool crashed_ = false;
  DurabilityStats stats_;
};

}  // namespace fbf::linkage
