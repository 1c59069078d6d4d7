// Durability property tests for the manifest/delta checkpoint chain and
// the group-commit journal, run against MemObjectBackend (the reference
// backend: byte surgery via poke(), kill -9 via abandoned handles).
//
// The core property (acceptance): for a kill at ANY byte of the
// manifest, a delta segment or the journal, recovery either rebuilds a
// state with entity ids byte-identical to an uninterrupted run over the
// surviving prefix (journal cuts), or detects the damage outright
// (manifest/base/delta cuts) — never a silently wrong store.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "linkage/person_gen.hpp"
#include "linkage/snapshot.hpp"
#include "storage/mem_object.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace {

namespace lk = fbf::linkage;
namespace st = fbf::storage;
namespace u = fbf::util;
using fbf::util::Rng;

lk::ComparatorConfig fpdl_config() {
  return lk::make_point_threshold_config(lk::FieldStrategy::kFpdl);
}

std::vector<std::vector<lk::PersonRecord>> make_batches(
    std::vector<std::size_t> sizes, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<lk::PersonRecord>> batches;
  batches.reserve(sizes.size());
  std::uint64_t next_id = 0;
  for (const std::size_t size : sizes) {
    auto batch = lk::generate_people(size, rng);
    for (auto& r : batch) {
      r.id = next_id++;
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

void expect_stores_equal(const lk::EntityStore& a, const lk::EntityStore& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.entity_count(), b.entity_count());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.entity_ids()[i], b.entity_ids()[i]) << "record " << i;
    EXPECT_EQ(a.records()[i].id, b.records()[i].id) << "record " << i;
  }
}

/// The uninterrupted reference: first `n` batches through a plain store.
lk::EntityStore reference_store(
    const std::vector<std::vector<lk::PersonRecord>>& batches, std::size_t n) {
  lk::EntityStore store(fpdl_config());
  for (std::size_t b = 0; b < n; ++b) {
    store.ingest(batches[b]);
  }
  return store;
}

/// Every blob in `backend`, by name — the pristine pre-crash state that
/// each surgical trial starts from.
std::map<std::string, std::string> dump(st::MemObjectBackend& backend) {
  std::map<std::string, std::string> objects;
  const auto refs = backend.list("").value();
  for (const auto& ref : refs) {
    objects[ref.name] = backend.get(ref).value();
  }
  return objects;
}

std::shared_ptr<st::MemObjectBackend> restore_backend(
    const std::map<std::string, std::string>& objects) {
  auto backend = std::make_shared<st::MemObjectBackend>();
  for (const auto& [name, bytes] : objects) {
    backend->poke(st::BlobRef{name}, bytes);
  }
  return backend;
}

// --- incremental checkpoints ------------------------------------------

TEST(DeltaCheckpoints, CheckpointCostIsTheDeltaNotTheStore) {
  // Two big founding batches, then small ones: after the base, each
  // checkpoint must write only the records added since the last one.
  const auto batches = make_batches({20, 20, 3, 3, 3, 3}, 1);
  auto backend = std::make_shared<st::MemObjectBackend>();
  lk::DurabilityPolicy policy;
  policy.checkpoint_every = 2;
  policy.compact_every = 8;
  lk::DurableEntityStore durable(fpdl_config(), backend, policy);
  for (const auto& batch : batches) {
    ASSERT_TRUE(durable.ingest(batch).ok());
  }
  EXPECT_EQ(durable.stats().checkpoints, 3u);
  EXPECT_EQ(durable.stats().deltas_written, 2u);  // base, then two deltas
  EXPECT_EQ(durable.stats().compactions, 0u);
  ASSERT_EQ(durable.manifest().deltas.size(), 2u);
  EXPECT_EQ(durable.manifest().base_records, 40u);

  const auto base_size =
      backend->get(st::BlobRef{durable.manifest().base_blob})->size();
  for (const auto& seg : durable.manifest().deltas) {
    const auto delta_size = backend->get(st::BlobRef{seg.blob})->size();
    EXPECT_LT(delta_size * 4, base_size)
        << seg.blob << " should be a fraction of the base";
  }

  lk::DurableEntityStore recovered(fpdl_config(), backend, policy);
  const auto report = recovered.recover();
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_EQ(report->deltas_applied, 2u);
  expect_stores_equal(reference_store(batches, batches.size()),
                      recovered.store());
}

TEST(DeltaCheckpoints, CountTriggeredCompactionFoldsDeltasIntoANewBase) {
  const auto batches = make_batches({20, 20, 2, 2, 2, 2, 2, 2}, 2);
  auto backend = std::make_shared<st::MemObjectBackend>();
  lk::DurabilityPolicy policy;
  policy.checkpoint_every = 1;
  policy.compact_every = 2;
  lk::DurableEntityStore durable(fpdl_config(), backend, policy);
  for (const auto& batch : batches) {
    ASSERT_TRUE(durable.ingest(batch).ok());
  }
  EXPECT_GT(durable.stats().compactions, 0u);
  // Compaction sweeps the folded base and deltas: only the chain the
  // manifest references (plus MANIFEST and journal) remains.
  EXPECT_LE(backend->object_count(),
            2 + 1 + durable.manifest().deltas.size());

  lk::DurableEntityStore recovered(fpdl_config(), backend, policy);
  ASSERT_TRUE(recovered.recover().ok());
  expect_stores_equal(reference_store(batches, batches.size()),
                      recovered.store());
}

TEST(DeltaCheckpoints, SizeTriggeredCompactionKeepsRecoveryReadsBounded) {
  // A small base then big deltas: when the deltas out-weigh the base,
  // the next checkpoint must fold even though compact_every is far away.
  const auto batches = make_batches({4, 8}, 3);
  auto backend = std::make_shared<st::MemObjectBackend>();
  lk::DurabilityPolicy policy;
  policy.checkpoint_every = 1;
  policy.compact_every = 100;
  lk::DurableEntityStore durable(fpdl_config(), backend, policy);
  for (const auto& batch : batches) {
    ASSERT_TRUE(durable.ingest(batch).ok());
  }
  EXPECT_GT(durable.stats().compactions, 0u);
  EXPECT_TRUE(durable.manifest().deltas.empty());
  EXPECT_EQ(durable.manifest().base_records, 12u);

  lk::DurableEntityStore recovered(fpdl_config(), backend, policy);
  ASSERT_TRUE(recovered.recover().ok());
  expect_stores_equal(reference_store(batches, batches.size()),
                      recovered.store());
}

// --- kill-at-every-byte ------------------------------------------------

/// Builds the standard crash scenario: 5 batches, checkpoint at batch 3
/// (base-3.snap), frames 3 and 4 in the journal.
struct JournalScenario {
  std::vector<std::vector<lk::PersonRecord>> batches;
  std::map<std::string, std::string> objects;
  lk::DurabilityPolicy policy;
};

JournalScenario build_journal_scenario() {
  JournalScenario s;
  s.batches = make_batches({6, 6, 6, 6, 6}, 4);
  s.policy.checkpoint_every = 3;
  s.policy.compact_every = 8;
  auto backend = std::make_shared<st::MemObjectBackend>();
  lk::DurableEntityStore durable(fpdl_config(), backend, s.policy);
  for (const auto& batch : s.batches) {
    EXPECT_TRUE(durable.ingest(batch).ok());
  }
  s.objects = dump(*backend);
  EXPECT_TRUE(s.objects.count("MANIFEST"));
  EXPECT_TRUE(s.objects.count("base-3.snap"));
  EXPECT_GT(s.objects.at("journal").size(), 0u);
  return s;
}

TEST(KillAtEveryByte, JournalCutRecoversTheExactFramePrefix) {
  const auto s = build_journal_scenario();
  const std::string journal = s.objects.at("journal");
  // Frame boundaries, recomputed from the deterministic encoding.
  std::vector<std::size_t> frame_end;
  std::size_t off = 0;
  for (std::uint64_t seq = 3; seq < 5; ++seq) {
    off += lk::encode_journal_frame(seq, s.batches[seq]).size();
    frame_end.push_back(off);
  }
  ASSERT_EQ(off, journal.size());

  for (std::size_t keep = 0; keep <= journal.size(); ++keep) {
    auto backend = restore_backend(s.objects);
    backend->poke(st::BlobRef{"journal"}, journal.substr(0, keep));
    std::size_t frames_fit = 0;
    while (frames_fit < frame_end.size() && frame_end[frames_fit] <= keep) {
      ++frames_fit;
    }
    const std::size_t expect_batches = 3 + frames_fit;

    lk::DurableEntityStore recovered(fpdl_config(), backend, s.policy);
    const auto report = recovered.recover();
    ASSERT_TRUE(report.ok())
        << "keep " << keep << ": " << report.status().to_string();
    ASSERT_EQ(report->batches_ingested, expect_batches) << "keep " << keep;
    expect_stores_equal(reference_store(s.batches, expect_batches),
                        recovered.store());
  }
}

TEST(KillAtEveryByte, TruncatedManifestIsAlwaysDetected) {
  const auto s = build_journal_scenario();
  const std::string manifest = s.objects.at("MANIFEST");
  for (std::size_t keep = 0; keep < manifest.size(); ++keep) {
    auto backend = restore_backend(s.objects);
    backend->poke(st::BlobRef{"MANIFEST"}, manifest.substr(0, keep));
    lk::DurableEntityStore recovered(fpdl_config(), backend, s.policy);
    const auto report = recovered.recover();
    EXPECT_FALSE(report.ok()) << "keep " << keep
                              << ": a cut manifest must never load";
  }
}

TEST(KillAtEveryByte, TruncatedBaseIsAlwaysDetected) {
  const auto s = build_journal_scenario();
  const std::string base = s.objects.at("base-3.snap");
  for (std::size_t keep = 0; keep < base.size(); ++keep) {
    auto backend = restore_backend(s.objects);
    backend->poke(st::BlobRef{"base-3.snap"}, base.substr(0, keep));
    lk::DurableEntityStore recovered(fpdl_config(), backend, s.policy);
    EXPECT_FALSE(recovered.recover().ok()) << "keep " << keep;
  }
}

TEST(KillAtEveryByte, TruncatedDeltaIsAlwaysDetected) {
  // A chain with a real delta: base at batch 2, delta-2-4.seg, then cut
  // the delta at every byte — the damage must always surface.
  const auto batches = make_batches({15, 15, 3, 3, 3}, 5);
  lk::DurabilityPolicy policy;
  policy.checkpoint_every = 2;
  policy.compact_every = 8;
  auto pristine = std::make_shared<st::MemObjectBackend>();
  {
    lk::DurableEntityStore durable(fpdl_config(), pristine, policy);
    for (const auto& batch : batches) {
      ASSERT_TRUE(durable.ingest(batch).ok());
    }
    ASSERT_EQ(durable.manifest().deltas.size(), 1u);
  }
  const auto objects = dump(*pristine);
  const std::string delta = objects.at("delta-2-4.seg");
  for (std::size_t keep = 0; keep < delta.size(); ++keep) {
    auto backend = restore_backend(objects);
    backend->poke(st::BlobRef{"delta-2-4.seg"}, delta.substr(0, keep));
    lk::DurableEntityStore recovered(fpdl_config(), backend, policy);
    EXPECT_FALSE(recovered.recover().ok()) << "keep " << keep;
  }
  // The undamaged chain still recovers to the reference state.
  lk::DurableEntityStore recovered(fpdl_config(), restore_backend(objects),
                                   policy);
  ASSERT_TRUE(recovered.recover().ok());
  expect_stores_equal(reference_store(batches, batches.size()),
                      recovered.store());
}

TEST(KillAtEveryByte, OrphanBlobsFromACrashedCheckpointAreIgnored) {
  // A crash after the delta blob landed but before the manifest swap
  // leaves an orphan the manifest never references: recovery must ignore
  // it (whatever partial bytes it holds), and the next checkpoint sweeps.
  const auto s = build_journal_scenario();
  const std::string garbage(37, '\xBE');
  for (const char* orphan : {"delta-0-1.seg", "base-9.snap"}) {
    auto backend = restore_backend(s.objects);
    backend->poke(st::BlobRef{orphan}, garbage);
    lk::DurableEntityStore recovered(fpdl_config(), backend, s.policy);
    const auto report = recovered.recover();
    ASSERT_TRUE(report.ok()) << orphan << " tripped recovery";
    expect_stores_equal(reference_store(s.batches, 5), recovered.store());
    // The next checkpoint sweeps what the manifest does not reference.
    ASSERT_TRUE(recovered.checkpoint().ok());
    EXPECT_FALSE(recovered.backend()->exists(st::BlobRef{orphan}).value());
  }
}

TEST(KillAtEveryByte, LostManifestIsDataLossAndKeepsTheJournal) {
  // A MANIFEST lost after a checkpoint is not a cold start: the journal
  // holds only the batches past that checkpoint.  Recovery must fail as
  // data loss and leave those frames (and the base) where they are.
  const auto batches = make_batches({10, 10, 10, 10, 10, 10}, 15);
  lk::DurabilityPolicy policy;
  policy.checkpoint_every = 4;
  auto backend = std::make_shared<st::MemObjectBackend>();
  {
    lk::DurableEntityStore durable(fpdl_config(), backend, policy);
    for (const auto& batch : batches) {
      ASSERT_TRUE(durable.ingest(batch).ok());
    }
  }
  ASSERT_TRUE(backend->remove(policy.manifest_ref()).ok());
  const std::string journal = backend->get(policy.journal_ref()).value();
  ASSERT_GT(journal.size(), 0u);

  lk::DurableEntityStore recovered(fpdl_config(), backend, policy);
  const auto report = recovered.recover();
  ASSERT_FALSE(report.ok()) << "a store missing its MANIFEST recovered";
  EXPECT_EQ(report.status().code(), u::StatusCode::kDataLoss);
  EXPECT_EQ(backend->get(policy.journal_ref()).value(), journal);
  EXPECT_TRUE(backend->exists(policy.base_ref(4)).value());
}

// --- group commit -------------------------------------------------------

TEST(GroupCommit, EntityIdsAreIdenticalUnderAnySyncPolicy) {
  // Satellite acceptance: batching/timer settings change WHEN bytes hit
  // the backend, never WHAT replays — same batches, same entity ids.
  const auto batches = make_batches({7, 7, 7, 7, 7, 7}, 8);
  const auto reference = reference_store(batches, batches.size());
  for (const auto& [max_batch, max_delay_ms] :
       std::vector<std::pair<std::size_t, double>>{
           {1, 0.0}, {2, 0.0}, {3, 0.0}, {100, 0.0}, {4, 1.0}}) {
    auto backend = std::make_shared<st::MemObjectBackend>();
    lk::DurabilityPolicy policy;
    policy.checkpoint_every = 0;
    policy.group_commit.max_batch = max_batch;
    policy.group_commit.max_delay_ms = max_delay_ms;
    {
      lk::DurableEntityStore durable(fpdl_config(), backend, policy);
      for (const auto& batch : batches) {
        ASSERT_TRUE(durable.ingest(batch).ok());
      }
      expect_stores_equal(reference, durable.store());
      // The destructor syncs the pending suffix (clean shutdown).
    }
    lk::DurableEntityStore recovered(fpdl_config(), backend, policy);
    const auto report = recovered.recover();
    ASSERT_TRUE(report.ok()) << "max_batch " << max_batch;
    EXPECT_EQ(report->batches_ingested, batches.size())
        << "max_batch " << max_batch;
    expect_stores_equal(reference, recovered.store());
  }
}

TEST(GroupCommit, BatchingAmortizesSyncs) {
  const auto batches = make_batches({5, 5, 5, 5, 5, 5}, 9);
  auto backend = std::make_shared<st::MemObjectBackend>();
  lk::DurabilityPolicy policy;
  policy.checkpoint_every = 0;
  policy.group_commit.max_batch = 3;
  lk::DurableEntityStore durable(fpdl_config(), backend, policy);
  for (const auto& batch : batches) {
    ASSERT_TRUE(durable.ingest(batch).ok());
  }
  EXPECT_EQ(durable.stats().journal_appends, 6u);
  EXPECT_EQ(durable.stats().journal_syncs, 2u);  // 6 appends / 3 per sync
}

TEST(GroupCommit, TimerFlushesAStalePendingBatch) {
  const auto batches = make_batches({5, 5}, 10);
  auto backend = std::make_shared<st::MemObjectBackend>();
  lk::DurabilityPolicy policy;
  policy.checkpoint_every = 0;
  policy.group_commit.max_batch = 100;   // count alone would never sync
  policy.group_commit.max_delay_ms = 1.0;
  lk::DurableEntityStore durable(fpdl_config(), backend, policy);
  ASSERT_TRUE(durable.ingest(batches[0]).ok());
  EXPECT_EQ(durable.stats().journal_syncs, 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(durable.ingest(batches[1]).ok());  // pending age > 1ms
  EXPECT_EQ(durable.stats().journal_syncs, 1u);

  durable.simulate_crash();  // both frames were synced by the timer
  lk::DurableEntityStore recovered(fpdl_config(), backend, policy);
  ASSERT_TRUE(recovered.recover().ok());
  EXPECT_EQ(recovered.batches_ingested(), 2u);
}

TEST(GroupCommit, CrashLosesExactlyTheUnsyncedWindow) {
  // The documented trade: with max_batch = 4, a kill -9 after 6 acked
  // batches recovers the 4 synced ones — no more, no less, and the
  // recovered ids match an uninterrupted 4-batch run exactly.
  const auto batches = make_batches({6, 6, 6, 6, 6, 6}, 11);
  auto backend = std::make_shared<st::MemObjectBackend>();
  lk::DurabilityPolicy policy;
  policy.checkpoint_every = 0;
  policy.group_commit.max_batch = 4;
  {
    lk::DurableEntityStore durable(fpdl_config(), backend, policy);
    for (const auto& batch : batches) {
      ASSERT_TRUE(durable.ingest(batch).ok());
    }
    durable.simulate_crash();  // frames 4 and 5 were never synced
    const auto refused = durable.ingest(batches[0]);
    EXPECT_FALSE(refused.ok());  // a crashed store refuses new work
    EXPECT_EQ(refused.status().code(), u::StatusCode::kFailedPrecondition);
  }
  lk::DurableEntityStore recovered(fpdl_config(), backend, policy);
  const auto report = recovered.recover();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->batches_ingested, 4u);
  expect_stores_equal(reference_store(batches, 4), recovered.store());

  // Re-acking the lost window converges with the never-crashed run.
  for (std::size_t b = 4; b < batches.size(); ++b) {
    ASSERT_TRUE(recovered.ingest(batches[b]).ok());
  }
  expect_stores_equal(reference_store(batches, batches.size()),
                      recovered.store());
}

// --- degradation accounting ---------------------------------------------

TEST(CheckpointRetry, FailedCheckpointsRetryOnTheNextBatchAndAreCounted) {
  // Satellite acceptance: a put-failing backend degrades the store (the
  // journal keeps every batch) and each later batch retries; when the
  // backend heals, the very next ingest checkpoints successfully.
  u::FaultConfig config;
  config.seed = 31;
  config.put_fail_rate = 1.0;
  u::FaultInjector faults(config);
  const auto batches = make_batches({5, 5, 5, 5, 5}, 12);
  auto backend = std::make_shared<st::MemObjectBackend>(&faults);
  lk::DurabilityPolicy policy;
  policy.checkpoint_every = 2;
  // Buffered appends keep the journal path off the put-fault site so the
  // failure isolates to checkpoint blobs.
  policy.group_commit.max_batch = 100;
  lk::DurableEntityStore durable(fpdl_config(), backend, policy);
  for (std::size_t b = 0; b < 4; ++b) {
    ASSERT_TRUE(durable.ingest(batches[b]).ok());  // ingest never fails
  }
  // every-2 policy, first attempt at batch 2, retries at 3 and 4.
  EXPECT_EQ(durable.checkpoint_failures(), 3u);
  EXPECT_EQ(durable.stats().checkpoints, 0u);
  EXPECT_FALSE(durable.stats().last_error.empty());
  EXPECT_GT(faults.counters().put_failures, 0u);

  backend->set_faults(nullptr);  // the backend heals
  ASSERT_TRUE(durable.ingest(batches[4]).ok());
  EXPECT_EQ(durable.stats().checkpoints, 1u);
  EXPECT_EQ(durable.checkpoint_failures(), 3u);  // history, not state
  EXPECT_EQ(durable.manifest().batches_covered(), 5u);

  lk::DurableEntityStore recovered(fpdl_config(), backend, policy);
  ASSERT_TRUE(recovered.recover().ok());
  expect_stores_equal(reference_store(batches, batches.size()),
                      recovered.store());
}

TEST(CheckpointRetry, LostManifestPutRestoresThePreviousChain) {
  // An acked-then-lost MANIFEST would orphan the whole chain; the
  // read-back verify must catch it, restore the previous manifest and
  // count a failure — recovery stays on the old chain.
  const auto batches = make_batches({6, 6, 6, 6}, 13);
  auto backend = std::make_shared<st::MemObjectBackend>();
  lk::DurabilityPolicy policy;
  policy.checkpoint_every = 2;
  lk::DurableEntityStore durable(fpdl_config(), backend, policy);
  ASSERT_TRUE(durable.ingest(batches[0]).ok());
  ASSERT_TRUE(durable.ingest(batches[1]).ok());  // chain covers 2 batches
  EXPECT_EQ(durable.stats().checkpoints, 1u);

  u::FaultConfig config;
  config.seed = 33;
  config.lost_object_rate = 1.0;
  u::FaultInjector faults(config);
  backend->set_faults(&faults);
  ASSERT_TRUE(durable.ingest(batches[2]).ok());
  ASSERT_TRUE(durable.ingest(batches[3]).ok());
  EXPECT_GT(durable.checkpoint_failures(), 0u);
  backend->set_faults(nullptr);

  // The old chain survived the failed swap; the journal still holds the
  // uncovered batches, so recovery reaches the full state.
  lk::DurableEntityStore recovered(fpdl_config(), backend, policy);
  const auto report = recovered.recover();
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_EQ(report->batches_ingested, batches.size());
  expect_stores_equal(reference_store(batches, batches.size()),
                      recovered.store());
}

// --- checkpoint read-back verification -------------------------------

/// Delegates to a MemObjectBackend, but rewrites every base blob on its
/// way in when `mangle` is set: the "bytes that landed" are then a
/// checksum-valid base whose payload is structurally wrong.
class ManglingBackend final : public st::StorageBackend {
 public:
  std::function<void(std::string& payload)> mangle;

  u::Status put(const st::BlobRef& ref, std::string_view bytes) override {
    if (!mangle || ref.name.rfind("base-", 0) != 0) {
      return inner_.put(ref, bytes);
    }
    // 28-byte envelope: magic u64, version u32, payload size u64,
    // payload checksum u64 (host-endian), then the payload.
    std::string payload(bytes.substr(28));
    mangle(payload);
    std::string blob(bytes.substr(0, 12));
    const std::uint64_t size = payload.size();
    const std::uint64_t checksum = u::fnv1a64(payload);
    blob.append(reinterpret_cast<const char*>(&size), sizeof size);
    blob.append(reinterpret_cast<const char*>(&checksum), sizeof checksum);
    blob += payload;
    return inner_.put(ref, blob);
  }
  u::Result<std::string> get(const st::BlobRef& ref) override {
    return inner_.get(ref);
  }
  u::Result<std::vector<st::BlobRef>> list(std::string_view prefix) override {
    return inner_.list(prefix);
  }
  u::Status remove(const st::BlobRef& ref) override {
    return inner_.remove(ref);
  }
  u::Result<bool> exists(const st::BlobRef& ref) override {
    return inner_.exists(ref);
  }
  u::Result<std::unique_ptr<st::AppendHandle>> open_append(
      const st::BlobRef& ref, bool truncate) override {
    return inner_.open_append(ref, truncate);
  }
  [[nodiscard]] std::string description() const override {
    return "mangling(mem)";
  }

 private:
  st::MemObjectBackend inner_;
};

/// A base checkpoint lands mangled by `mangle`: the checkpoint must fail,
/// leave the manifest (in memory and on the backend) as it was and drop
/// the bad blob, and recovery must still rebuild the full store from the
/// previous chain plus the journal.
void expect_mangled_base_rejected(
    const std::function<void(std::string&)>& mangle) {
  // 5 then 10 records: the second checkpoint's deltas would out-weigh
  // the 5-record base, so it is a full base (size-triggered compaction).
  const auto batches = make_batches({5, 10}, 17);
  auto backend = std::make_shared<ManglingBackend>();
  lk::DurabilityPolicy policy;
  policy.checkpoint_every = 0;
  lk::DurableEntityStore durable(fpdl_config(), backend, policy);
  ASSERT_TRUE(durable.ingest(batches[0]).ok());
  ASSERT_TRUE(durable.checkpoint().ok());
  const std::string manifest_bytes =
      backend->get(policy.manifest_ref()).value();
  const lk::SnapshotManifest manifest = durable.manifest();

  backend->mangle = mangle;
  ASSERT_TRUE(durable.ingest(batches[1]).ok());
  const u::Status checked = durable.checkpoint();
  EXPECT_FALSE(checked.ok());
  EXPECT_EQ(checked.code(), u::StatusCode::kDataLoss) << checked.to_string();
  EXPECT_EQ(backend->get(policy.manifest_ref()).value(), manifest_bytes);
  EXPECT_EQ(durable.manifest().base_blob, manifest.base_blob);
  EXPECT_EQ(durable.manifest().batches_covered(), manifest.batches_covered());
  EXPECT_FALSE(backend->exists(policy.base_ref(2)).value());

  backend->mangle = nullptr;
  lk::DurableEntityStore recovered(fpdl_config(), backend, policy);
  const auto report = recovered.recover();
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_EQ(report->journal_batches_replayed, 1u);
  expect_stores_equal(reference_store(batches, batches.size()),
                      recovered.store());
}

TEST(CheckpointVerify, EntityIdPastTheTotalFailsTheCheckpoint) {
  // entity_total sits after batches_ingested (u64) in the payload; with
  // a total of 1, every record founding a later entity is out of range.
  expect_mangled_base_rejected([](std::string& payload) {
    const std::uint32_t total = 1;
    std::memcpy(payload.data() + sizeof(std::uint64_t), &total, sizeof total);
  });
}

TEST(CheckpointVerify, TruncatedPayloadFailsTheCheckpoint) {
  // Resealed, so the checksum passes and the last record is cut short.
  expect_mangled_base_rejected(
      [](std::string& payload) { payload.resize(payload.size() - 7); });
}

TEST(CheckpointVerify, TrailingBytesFailTheCheckpoint) {
  expect_mangled_base_rejected(
      [](std::string& payload) { payload += "tail"; });
}

// --- codec edge cases ---------------------------------------------------

TEST(DeltaCodec, EveryByteCorruptionIsDetected) {
  lk::EntityStore store(fpdl_config());
  const auto batches = make_batches({6, 6}, 14);
  store.ingest(batches[0]);
  const std::size_t from = store.size();
  store.ingest(batches[1]);
  const std::string bytes = lk::encode_delta(store, from, 1, 2);
  ASSERT_TRUE(lk::decode_delta(bytes).ok());
  Rng rng(45);
  for (std::size_t offset = 0; offset < bytes.size(); ++offset) {
    std::string corrupt = bytes;
    corrupt[offset] = static_cast<char>(
        static_cast<unsigned char>(corrupt[offset]) ^
        (1u << rng.below(8)));
    EXPECT_FALSE(lk::decode_delta(corrupt).ok()) << "byte " << offset;
  }
}

TEST(ManifestCodec, RoundTripsAndRejectsBrokenChains) {
  lk::SnapshotManifest manifest;
  manifest.base_blob = "base-4.snap";
  manifest.base_batches = 4;
  manifest.base_records = 120;
  manifest.deltas.push_back({"delta-4-6.seg", 4, 6, 120, 150});
  manifest.deltas.push_back({"delta-6-9.seg", 6, 9, 150, 180});
  const std::string bytes = lk::encode_manifest(manifest);
  const auto decoded = lk::decode_manifest(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded->base_blob, manifest.base_blob);
  ASSERT_EQ(decoded->deltas.size(), 2u);
  EXPECT_EQ(decoded->batches_covered(), 9u);
  EXPECT_EQ(decoded->records_covered(), 180u);

  // A gap in the chain (delta starting past the covered position) must
  // be rejected at decode time, before any blob is fetched.
  lk::SnapshotManifest gap = manifest;
  gap.deltas[1].from_batches = 7;
  EXPECT_FALSE(lk::decode_manifest(lk::encode_manifest(gap)).ok());
  lk::SnapshotManifest overlap = manifest;
  overlap.deltas[1].from_record = 140;
  EXPECT_FALSE(lk::decode_manifest(lk::encode_manifest(overlap)).ok());
}

}  // namespace
