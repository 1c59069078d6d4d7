#include "linkage/snapshot.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "linkage/record_codec.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/wire.hpp"

namespace fbf::linkage {

namespace u = fbf::util;

namespace {

// Byte-level encoding comes from util::wire, the record layout from
// linkage/record_codec.
using fbf::util::wire::put;
using fbf::util::wire::Reader;
using wire::get_record;
using wire::put_record;

constexpr std::uint64_t kSnapshotMagic = 0x31504E5346424600ull;  // "\0FBFSNP1"
constexpr std::uint64_t kDeltaMagic = 0x31544C4446424600ull;     // "\0FBFDLT1"
constexpr std::uint32_t kFrameMagic = 0x4C4E524Au;               // "JRNL"

double steady_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The record section shared by snapshots and deltas (what walk_records
/// reads): the count, then each record of `store` from `from` on with its
/// entity id.  No signatures: they are derived state, rebuilt on load
/// under the reader's comparator.
void put_records(std::string& payload, const EntityStore& store,
                 std::size_t from) {
  put<std::uint64_t>(payload, store.size() - from);
  for (std::size_t i = from; i < store.size(); ++i) {
    put_record(payload, store.records()[i]);
    put<std::uint32_t>(payload, store.entity_ids()[i]);
  }
}

/// Appends walked records to the columns EntityStore::restore takes.
struct ColumnSink {
  std::vector<PersonRecord>& records;
  std::vector<std::uint32_t>& entity_ids;

  void operator()(PersonRecord& rec, std::uint32_t entity) const {
    records.push_back(std::move(rec));
    entity_ids.push_back(entity);
  }
};

/// Walks a record section: on_record(record, entity) gets each record, in
/// order, decoded into one reused PersonRecord.  Checks every record,
/// entity id < entity_total and no trailing bytes, so a blob that passes
/// restores cleanly; kDataLoss on the first failure.
template <typename OnRecord>
u::Status walk_records(Reader& r, std::uint32_t entity_total,
                       const std::string& kind, OnRecord&& on_record) {
  std::uint64_t n_records = 0;
  if (!r.get(n_records)) {
    return u::Status::data_loss(kind + " payload header malformed");
  }
  PersonRecord rec;
  for (std::uint64_t i = 0; i < n_records; ++i) {
    std::uint32_t entity = 0;
    if (!get_record(r, rec) || !r.get(entity)) {
      return u::Status::data_loss(kind + " record " + std::to_string(i) +
                                  " malformed");
    }
    if (entity >= entity_total) {
      return u::Status::data_loss(
          kind + " inconsistent: entity id " + std::to_string(entity) +
          " >= entity total " + std::to_string(entity_total));
    }
    on_record(rec, entity);
  }
  if (!r.done()) {
    return u::Status::data_loss(kind + " payload has trailing bytes");
  }
  return {};
}

/// A base snapshot's payload header.
struct SnapshotHeader {
  std::uint64_t batches_ingested = 0;
  std::uint32_t entity_total = 0;
};

template <typename OnRecord>
u::Result<SnapshotHeader> walk_snapshot(std::string_view bytes,
                                        OnRecord&& on_record) {
  auto payload = storage::open_envelope(bytes, kSnapshotMagic,
                                        kSnapshotVersion, "snapshot");
  if (!payload.ok()) {
    return payload.status();
  }
  Reader r{payload.value()};
  SnapshotHeader header;
  if (!r.get(header.batches_ingested) || !r.get(header.entity_total)) {
    return u::Status::data_loss("snapshot payload header malformed");
  }
  u::Status walked = walk_records(r, header.entity_total, "snapshot",
                                  std::forward<OnRecord>(on_record));
  if (!walked.ok()) {
    return walked;
  }
  return header;
}

/// Fills `seg`'s header fields and hands its records to on_record.
template <typename OnRecord>
u::Status walk_delta(std::string_view bytes, DeltaSegment& seg,
                     OnRecord&& on_record) {
  auto payload =
      storage::open_envelope(bytes, kDeltaMagic, kDeltaVersion, "delta");
  if (!payload.ok()) {
    return payload.status();
  }
  Reader r{payload.value()};
  if (!r.get(seg.from_batches) || !r.get(seg.to_batches) ||
      !r.get(seg.from_record) || !r.get(seg.entity_total)) {
    return u::Status::data_loss("delta payload header malformed");
  }
  return walk_records(r, seg.entity_total, "delta",
                      std::forward<OnRecord>(on_record));
}

/// A record sink that keeps nothing: the checkpoint's read-back check
/// runs a walk's whole validation without a second copy of the store.
constexpr auto kDiscard = [](const PersonRecord&, std::uint32_t) {};

}  // namespace

// --- snapshot ----------------------------------------------------------

std::string encode_snapshot(const EntityStore& store,
                            std::uint64_t batches_ingested) {
  std::string payload;
  put<std::uint64_t>(payload, batches_ingested);
  put<std::uint32_t>(payload, static_cast<std::uint32_t>(store.entity_count()));
  put_records(payload, store, 0);
  return storage::seal_envelope(kSnapshotMagic, kSnapshotVersion, payload);
}

u::Result<std::uint64_t> decode_snapshot(std::string_view bytes,
                                         EntityStore& store) {
  std::vector<PersonRecord> records;
  std::vector<std::uint32_t> entity_ids;
  auto header = walk_snapshot(bytes, ColumnSink{records, entity_ids});
  if (!header.ok()) {
    return header.status();
  }
  u::Status restored = store.restore(std::move(records),
                                     std::move(entity_ids),
                                     header->entity_total);
  if (!restored.ok()) {
    return u::Status::data_loss("snapshot inconsistent: " +
                                restored.message());
  }
  return header->batches_ingested;
}

// --- delta segments ----------------------------------------------------

std::string encode_delta(const EntityStore& store, std::size_t from_record,
                         std::uint64_t from_batches,
                         std::uint64_t to_batches) {
  std::string payload;
  put<std::uint64_t>(payload, from_batches);
  put<std::uint64_t>(payload, to_batches);
  put<std::uint64_t>(payload, from_record);
  put<std::uint32_t>(payload, static_cast<std::uint32_t>(store.entity_count()));
  put_records(payload, store, from_record);
  return storage::seal_envelope(kDeltaMagic, kDeltaVersion, payload);
}

u::Result<DeltaSegment> decode_delta(std::string_view bytes) {
  DeltaSegment seg;
  u::Status walked =
      walk_delta(bytes, seg, ColumnSink{seg.records, seg.entity_ids});
  if (!walked.ok()) {
    return walked;
  }
  return seg;
}

// --- journal -----------------------------------------------------------

std::string encode_journal_frame(std::uint64_t seq,
                                 std::span<const PersonRecord> batch) {
  std::string payload;
  wire::put_record_list(payload, batch);
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
    if (magic != kFrameMagic || payload_size > storage::kMaxPayloadBytes ||
        left - 28 < payload_size) {
      replay.dropped_tail_bytes += left;
      return replay;  // damaged/cut frame: stop at the intact prefix
    }
    const std::string_view payload = bytes.substr(pos + 28, payload_size);
    if (u::fnv1a64(payload) != checksum) {
      replay.dropped_tail_bytes += left;
      return replay;
    }
    JournalFrame frame;
    frame.seq = seq;
    if (!wire::get_record_list(payload, frame.batch)) {
      replay.dropped_tail_bytes += left;
      return replay;
    }
    replay.frames.push_back(std::move(frame));
    pos += 28 + payload_size;
  }
}

// --- durable store -----------------------------------------------------

DurableEntityStore::DurableEntityStore(
    ComparatorConfig comparator,
    std::shared_ptr<storage::StorageBackend> backend, DurabilityPolicy policy,
    EntityStoreOptions options)
    : comparator_(comparator),
      backend_(std::move(backend)),
      policy_(std::move(policy)),
      chain_(*backend_, policy_.prefix),
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
  std::string bytes;
  storage::CheckpointChain::BlobCheck check;
  if (full) {
    next = {storage::base_blob_name(to_batches), to_batches, store_.size(), {}};
    bytes = encode_snapshot(store_, to_batches);
    check = [](std::string_view landed) {
      return walk_snapshot(landed, kDiscard).status();
    };
  } else {
    next.deltas.push_back({storage::delta_blob_name(from_batches, to_batches),
                           from_batches, to_batches, from_record,
                           store_.size()});
    bytes = encode_delta(store_, static_cast<std::size_t>(from_record),
                         from_batches, to_batches);
    check = [](std::string_view landed) {
      DeltaSegment seg;
      return walk_delta(landed, seg, kDiscard);
    };
  }
  if (auto* faults = backend_->faults()) {
    (void)faults->corrupt_bytes(bytes, "snapshot", to_batches);
  }
  // Nothing below touches the journal until the blob and the manifest
  // have both been read back: a failed commit costs a checkpoint, never
  // data.
  auto committed = chain_.commit(
      have_base ? &manifest_ : nullptr, next,
      full ? next.base_blob : next.deltas.back().blob, bytes, check);
  if (!committed.ok()) {
    return committed.status();
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
  if (!full) {
    ++stats_.deltas_written;
  } else if (have_base) {
    ++stats_.compactions;
  }
  chain_.sweep(manifest_);
  return {};
}

u::Result<RecoveryReport> DurableEntityStore::recover() {
  RecoveryReport report;
  EntityStore fresh(comparator_, options_);
  std::uint64_t position = 0;
  auto read = chain_.read_manifest();
  if (!read.ok() && read.status().code() != u::StatusCode::kNotFound) {
    return read.status();  // present-but-damaged manifest: data loss
  }
  const bool have_manifest = read.ok();
  SnapshotManifest manifest =
      have_manifest ? std::move(read.value()) : SnapshotManifest{};
  if (have_manifest) {
    // base -> deltas, walked straight into one restore.
    std::vector<PersonRecord> records;
    std::vector<std::uint32_t> entity_ids;
    const ColumnSink sink{records, entity_ids};
    std::uint32_t entity_total = 0;
    u::Status walked = chain_.walk(
        manifest,
        [&](std::string_view bytes) -> u::Status {
          auto header = walk_snapshot(bytes, sink);
          if (!header.ok()) {
            return header.status();
          }
          if (header->batches_ingested != manifest.base_batches ||
              records.size() != manifest.base_records) {
            return u::Status::data_loss("base blob disagrees with manifest");
          }
          entity_total = header->entity_total;
          position = manifest.base_batches;
          return {};
        },
        [&](const SnapshotManifest::Segment& entry,
            std::string_view bytes) -> u::Status {
          DeltaSegment seg;  // header only: the records go to the sink
          const std::size_t before = records.size();
          if (u::Status st = walk_delta(bytes, seg, sink); !st.ok()) {
            return st;
          }
          if (seg.from_batches != position || seg.from_record != before ||
              seg.to_batches != entry.to_batches ||
              seg.from_batches != entry.from_batches) {
            return u::Status::data_loss("delta blob " + entry.blob +
                                        " breaks the coverage chain");
          }
          entity_total = seg.entity_total;
          position = seg.to_batches;
          ++report.deltas_applied;
          return {};
        });
    if (!walked.ok()) {
      return walked;
    }
    u::Status restored = fresh.restore(std::move(records),
                                       std::move(entity_ids), entity_total);
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
        if (frame.seq != position && replayed.empty()) {
          // The journal resumes past the chain's end: the batches between
          // are gone (say, a lost MANIFEST).  Leave it for an operator.
          return u::Status::data_loss(
              "journal resumes at batch " + std::to_string(frame.seq) +
              " but the checkpoint chain covers " + std::to_string(position));
        }
        if (frame.seq != position) {
          break;  // a later gap: keep the contiguous prefix only
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
  manifest_ = std::move(manifest);
  batches_ingested_ = position;
  last_checkpoint_batch_ = report.snapshot_loaded
                               ? position - report.journal_batches_replayed
                               : 0;
  report.batches_ingested = position;
  return report;
}

}  // namespace fbf::linkage
