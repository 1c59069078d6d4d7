#include "linkage/snapshot.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "linkage/person_gen.hpp"
#include "storage/local_dir.hpp"
#include "storage/mem_object.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace {

namespace lk = fbf::linkage;
namespace st = fbf::storage;
namespace u = fbf::util;
namespace fs = std::filesystem;
using fbf::util::Rng;

lk::ComparatorConfig fpdl_config() {
  return lk::make_point_threshold_config(lk::FieldStrategy::kFpdl);
}

lk::DurabilityPolicy policy(std::size_t checkpoint_every = 4) {
  lk::DurabilityPolicy p;
  p.checkpoint_every = checkpoint_every;
  return p;
}

std::vector<std::vector<lk::PersonRecord>> make_batches(std::size_t n_batches,
                                                        std::size_t batch_size,
                                                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<lk::PersonRecord>> batches;
  batches.reserve(n_batches);
  std::uint64_t next_id = 0;
  for (std::size_t b = 0; b < n_batches; ++b) {
    auto batch = lk::generate_people(batch_size, rng);
    for (auto& r : batch) {
      r.id = next_id++;
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

void expect_probe_equal(const lk::EntityStore::ProbeResult& got,
                        const lk::EntityStore::ProbeResult& want,
                        std::size_t query) {
  ASSERT_EQ(got.matches.size(), want.matches.size()) << "query " << query;
  for (std::size_t m = 0; m < got.matches.size(); ++m) {
    EXPECT_EQ(got.matches[m].record_index, want.matches[m].record_index)
        << "query " << query << " #" << m;
    EXPECT_EQ(got.matches[m].entity_id, want.matches[m].entity_id)
        << "query " << query << " #" << m;
    EXPECT_EQ(got.matches[m].score, want.matches[m].score)
        << "query " << query << " #" << m;
  }
  EXPECT_EQ(got.counters.fbf_evaluations, want.counters.fbf_evaluations)
      << "query " << query;
  EXPECT_EQ(got.counters.verify_calls, want.counters.verify_calls)
      << "query " << query;
}

/// Same records and entity ids, and — since signatures are derived on
/// load, not stored — the same answers to probes of every stored record
/// and of an error copy of each.
void expect_stores_equal(const lk::EntityStore& a, const lk::EntityStore& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.entity_count(), b.entity_count());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.entity_ids()[i], b.entity_ids()[i]) << "record " << i;
    EXPECT_EQ(a.records()[i].id, b.records()[i].id) << "record " << i;
    for (const auto field : lk::all_record_fields()) {
      EXPECT_EQ(a.records()[i].field(field), b.records()[i].field(field));
    }
  }
  Rng rng(a.size());
  std::vector<lk::PersonRecord> queries(a.records().begin(),
                                        a.records().end());
  const auto errors = lk::make_error_records(queries, {}, rng);
  queries.insert(queries.end(), errors.begin(), errors.end());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    expect_probe_equal(b.probe(queries[q], 0), a.probe(queries[q], 0), q);
  }
}

/// Per-test scratch directory backing a LocalDirBackend, removed on
/// teardown.
class SnapshotFiles : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    base_ = fs::path(::testing::TempDir()) /
            (std::string("fbf_") + info->name());
    fs::create_directories(base_);
  }

  void TearDown() override {
    std::error_code ec;
    fs::remove_all(base_, ec);
  }

  [[nodiscard]] std::shared_ptr<st::LocalDirBackend> backend(
      u::FaultInjector* faults = nullptr) const {
    return std::make_shared<st::LocalDirBackend>(base_.string(), faults);
  }

  /// True when a checkpoint chain (manifest) exists in the directory.
  [[nodiscard]] bool has_manifest() const {
    return fs::exists(base_ / "MANIFEST");
  }

  [[nodiscard]] std::uintmax_t journal_size() const {
    return fs::file_size(base_ / "journal");
  }

  fs::path base_;
};

TEST(Snapshot, RoundTripPreservesRecordsIdsAndSignatures) {
  lk::EntityStore store(fpdl_config());
  const auto batches = make_batches(3, 40, 1);
  for (const auto& batch : batches) {
    store.ingest(batch);
  }
  const std::string bytes = lk::encode_snapshot(store, 3);
  lk::EntityStore loaded(fpdl_config());
  const auto seq = lk::decode_snapshot(bytes, loaded);
  ASSERT_TRUE(seq.ok()) << seq.status().to_string();
  EXPECT_EQ(seq.value(), 3u);
  expect_stores_equal(store, loaded);
}

TEST(Snapshot, RoundTripWithoutFbfComparator) {
  // A DL-only comparator keeps no signatures; the snapshot must say so
  // and the loaded store must behave identically.
  const auto config = lk::make_point_threshold_config(lk::FieldStrategy::kDl);
  lk::EntityStore store(config);
  store.ingest(make_batches(1, 30, 2).front());
  const std::string bytes = lk::encode_snapshot(store, 1);
  lk::EntityStore loaded(config);
  ASSERT_TRUE(lk::decode_snapshot(bytes, loaded).ok());
  expect_stores_equal(store, loaded);
}

TEST(Snapshot, VersionOneBlobsFailRecoveryWithDataLoss) {
  // Version 1 carried signatures next to each record; no v1 reader is
  // kept.  An otherwise intact v1 base or delta is refused as data loss.
  auto backend = std::make_shared<st::MemObjectBackend>();
  const auto batches = make_batches(2, 10, 14);
  std::string base_blob;
  {
    lk::DurableEntityStore durable(fpdl_config(), backend, policy(1));
    for (const auto& batch : batches) {
      ASSERT_TRUE(durable.ingest(batch).ok());
    }
    base_blob = durable.manifest().base_blob;
    const std::string delta = lk::encode_delta(durable.store(), 10, 1, 2);
    ASSERT_TRUE(lk::decode_delta(delta).ok());
    std::string old_delta = delta;
    old_delta[8] = 1;  // the envelope's u32 version, little-endian
    const auto decoded = lk::decode_delta(old_delta);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), u::StatusCode::kDataLoss);
  }
  auto bytes = backend->get({base_blob});
  ASSERT_TRUE(bytes.ok());
  std::string old_base = bytes.value();
  ASSERT_EQ(old_base[8], static_cast<char>(lk::kSnapshotVersion));
  old_base[8] = 1;
  ASSERT_TRUE(backend->put({base_blob}, old_base).ok());
  lk::DurableEntityStore reader(fpdl_config(), backend, policy(1));
  const auto recovered = reader.recover();
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), u::StatusCode::kDataLoss);
}

TEST(Snapshot, EverySingleByteCorruptionIsDetected) {
  // Property (acceptance): encode -> corrupt one byte -> decode must fail
  // via checksum/structure checks, at EVERY byte offset.  A silently
  // wrong load would poison every later nightly run.
  lk::EntityStore store(fpdl_config());
  store.ingest(make_batches(1, 12, 3).front());
  const std::string bytes = lk::encode_snapshot(store, 1);
  Rng rng(44);
  for (std::size_t offset = 0; offset < bytes.size(); ++offset) {
    std::string corrupt = bytes;
    const int bit = static_cast<int>(rng.below(8));
    corrupt[offset] = static_cast<char>(
        static_cast<unsigned char>(corrupt[offset]) ^ (1u << bit));
    lk::EntityStore loaded(fpdl_config());
    const auto result = lk::decode_snapshot(corrupt, loaded);
    EXPECT_FALSE(result.ok()) << "byte " << offset << " bit " << bit
                              << " flipped but the snapshot loaded";
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), u::StatusCode::kDataLoss);
    }
  }
}

TEST(Snapshot, TruncatedSnapshotIsDetected) {
  lk::EntityStore store(fpdl_config());
  store.ingest(make_batches(1, 10, 4).front());
  const std::string bytes = lk::encode_snapshot(store, 1);
  for (const std::size_t keep : {std::size_t{0}, std::size_t{10},
                                 std::size_t{27}, bytes.size() / 2,
                                 bytes.size() - 1}) {
    lk::EntityStore loaded(fpdl_config());
    EXPECT_FALSE(lk::decode_snapshot(bytes.substr(0, keep), loaded).ok())
        << "kept " << keep;
  }
}

TEST(Journal, TruncationAtEveryPointYieldsAnIntactPrefix) {
  // Property (acceptance): however many tail bytes a crash destroys, the
  // replay is a frame-aligned prefix of what was appended — never a
  // half-applied batch, never an error.
  const auto batches = make_batches(4, 8, 5);
  std::string bytes;
  std::vector<std::size_t> frame_end;  // cumulative byte offset per frame
  for (std::size_t b = 0; b < batches.size(); ++b) {
    bytes += lk::encode_journal_frame(b, batches[b]);
    frame_end.push_back(bytes.size());
  }
  for (std::size_t keep = 0; keep <= bytes.size(); ++keep) {
    // A cut at `keep` preserves every frame that ends at or before it.
    std::size_t expect_frames = 0;
    while (expect_frames < frame_end.size() &&
           frame_end[expect_frames] <= keep) {
      ++expect_frames;
    }
    const auto replay = lk::replay_journal(
        std::string_view(bytes).substr(0, keep));
    ASSERT_EQ(replay.frames.size(), expect_frames) << "kept " << keep;
    const std::size_t prefix_bytes =
        expect_frames == 0 ? 0 : frame_end[expect_frames - 1];
    EXPECT_EQ(replay.dropped_tail_bytes, keep - prefix_bytes)
        << "kept " << keep;
    for (std::size_t f = 0; f < replay.frames.size(); ++f) {
      EXPECT_EQ(replay.frames[f].seq, f);
      ASSERT_EQ(replay.frames[f].batch.size(), batches[f].size());
      for (std::size_t r = 0; r < batches[f].size(); ++r) {
        EXPECT_EQ(replay.frames[f].batch[r].id, batches[f][r].id);
      }
    }
  }
}

TEST(Journal, CorruptMiddleFrameStopsAtThePrefix) {
  const auto batches = make_batches(3, 6, 6);
  std::string bytes;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    bytes += lk::encode_journal_frame(b, batches[b]);
  }
  // Flip a byte inside the second frame's payload region.
  const std::size_t offset = bytes.size() / 2;
  bytes[offset] = static_cast<char>(
      static_cast<unsigned char>(bytes[offset]) ^ 0x40);
  const auto replay = lk::replay_journal(bytes);
  EXPECT_LT(replay.frames.size(), batches.size());
  for (std::size_t f = 0; f < replay.frames.size(); ++f) {
    EXPECT_EQ(replay.frames[f].seq, f);
  }
}

TEST_F(SnapshotFiles, CrashRecoveryRestoresExactlyThePostBatchKStore) {
  // Acceptance scenario: ingest N batches, "kill" after batch k, recover,
  // and the store must equal the uninterrupted post-batch-k state — same
  // entity count, ids and signatures; then re-ingesting the remaining
  // batches must land exactly where an uninterrupted run lands.
  const std::size_t n_batches = 7;
  const std::size_t crash_after = 4;  // not on a checkpoint boundary
  const auto batches = make_batches(n_batches, 25, 7);

  lk::DurableEntityStore durable(fpdl_config(), backend(),
                                 policy(/*every=*/3));
  for (std::size_t b = 0; b < crash_after; ++b) {
    ASSERT_TRUE(durable.ingest(batches[b]).ok());
  }
  durable.simulate_crash();
  // A fresh process recovers from the backend alone.
  lk::DurableEntityStore recovered(fpdl_config(), backend(),
                                   policy(/*every=*/3));
  const auto report = recovered.recover();
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_TRUE(report->snapshot_loaded);  // checkpoint fired at batch 3
  EXPECT_EQ(report->journal_batches_replayed, 1u);  // batch 3..4 delta
  EXPECT_EQ(report->batches_ingested, crash_after);

  lk::EntityStore uninterrupted(fpdl_config());
  for (std::size_t b = 0; b < crash_after; ++b) {
    uninterrupted.ingest(batches[b]);
  }
  expect_stores_equal(uninterrupted, recovered.store());

  // Continue the night: the recovered pipeline must converge with the
  // never-crashed one.
  for (std::size_t b = crash_after; b < n_batches; ++b) {
    ASSERT_TRUE(recovered.ingest(batches[b]).ok());
    uninterrupted.ingest(batches[b]);
  }
  expect_stores_equal(uninterrupted, recovered.store());
}

TEST_F(SnapshotFiles, RecoverOnColdStartYieldsEmptyStore) {
  lk::DurableEntityStore durable(fpdl_config(), backend(), policy());
  const auto report = durable.recover();
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->snapshot_loaded);
  EXPECT_EQ(report->batches_ingested, 0u);
  EXPECT_EQ(durable.store().size(), 0u);
}

TEST_F(SnapshotFiles, CheckpointEveryNWritesManifestAndResetsJournal) {
  const auto batches = make_batches(4, 10, 8);
  lk::DurableEntityStore durable(fpdl_config(), backend(),
                                 policy(/*every=*/2));
  ASSERT_TRUE(durable.ingest(batches[0]).ok());
  EXPECT_FALSE(has_manifest());
  EXPECT_GT(journal_size(), 0u);
  ASSERT_TRUE(durable.ingest(batches[1]).ok());
  EXPECT_TRUE(has_manifest());
  EXPECT_EQ(journal_size(), 0u);  // reset after the checkpoint
  ASSERT_TRUE(durable.ingest(batches[2]).ok());
  EXPECT_GT(journal_size(), 0u);
  EXPECT_EQ(durable.checkpoint_failures(), 0u);
  EXPECT_EQ(durable.stats().checkpoints, 1u);
}

TEST_F(SnapshotFiles, ManualCheckpointOnlyWhenEveryIsZero) {
  const auto batches = make_batches(3, 10, 9);
  lk::DurableEntityStore durable(fpdl_config(), backend(),
                                 policy(/*every=*/0));
  for (const auto& batch : batches) {
    ASSERT_TRUE(durable.ingest(batch).ok());
  }
  EXPECT_FALSE(has_manifest());
  ASSERT_TRUE(durable.checkpoint().ok());
  EXPECT_TRUE(has_manifest());
  EXPECT_EQ(journal_size(), 0u);
}

TEST_F(SnapshotFiles, InjectedSnapshotCorruptionDegradesWithoutDataLoss) {
  // Every checkpoint write is corrupted; verification catches it before
  // the manifest swap and the journal reset, so ingest keeps succeeding
  // and recovery comes from the (complete) journal.
  u::FaultConfig faults;
  faults.seed = 21;
  faults.snapshot_corrupt_rate = 1.0;
  u::FaultInjector injector(faults);
  const auto batches = make_batches(4, 12, 10);
  lk::DurableEntityStore durable(fpdl_config(), backend(&injector),
                                 policy(/*every=*/2));
  for (const auto& batch : batches) {
    ASSERT_TRUE(durable.ingest(batch).ok());
  }
  // The policy is every-N-since-last-SUCCESS, so after the first failure
  // at batch 2 every later batch retries: failures at batches 2, 3, 4.
  EXPECT_EQ(durable.checkpoint_failures(), 3u);
  EXPECT_FALSE(has_manifest());  // never a corrupt chain on disk
  EXPECT_TRUE(durable.backend()->list("base-").value().empty());
  EXPECT_GT(injector.counters().bytes_corrupted, 0u);
  EXPECT_FALSE(durable.stats().last_error.empty());

  lk::DurableEntityStore recovered(fpdl_config(), backend(),
                                   policy(/*every=*/0));
  const auto report = recovered.recover();
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->snapshot_loaded);
  EXPECT_EQ(report->journal_batches_replayed, batches.size());
  lk::EntityStore uninterrupted(fpdl_config());
  for (const auto& batch : batches) {
    uninterrupted.ingest(batch);
  }
  expect_stores_equal(uninterrupted, recovered.store());
}

TEST_F(SnapshotFiles, InjectedJournalTruncationRecoversThePrefix) {
  // The injected crash cuts an append short; ingest reports it and the
  // recovered store is exactly the pre-crash prefix.
  u::FaultConfig faults;
  faults.seed = 23;
  faults.journal_truncate_rate = 1.0;  // the very first append is cut
  u::FaultInjector injector(faults);
  const auto batches = make_batches(3, 15, 11);

  lk::DurableEntityStore safe(fpdl_config(), backend(), policy(/*every=*/0));
  ASSERT_TRUE(safe.ingest(batches[0]).ok());
  ASSERT_TRUE(safe.ingest(batches[1]).ok());

  // Same directory, but this writer's next append is cut by the injector.
  lk::DurableEntityStore crasher(fpdl_config(), backend(&injector),
                                 policy(/*every=*/0));
  ASSERT_TRUE(crasher.recover().ok());
  EXPECT_EQ(crasher.batches_ingested(), 2u);
  const auto cut = crasher.ingest(batches[2]);
  EXPECT_FALSE(cut.ok());
  EXPECT_EQ(cut.status().code(), u::StatusCode::kUnavailable);

  lk::DurableEntityStore recovered(fpdl_config(), backend(),
                                   policy(/*every=*/0));
  const auto report = recovered.recover();
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->dropped_tail_bytes, 0u);
  EXPECT_EQ(report->batches_ingested, 2u);  // prefix: batches 0 and 1 only
  lk::EntityStore prefix(fpdl_config());
  prefix.ingest(batches[0]);
  prefix.ingest(batches[1]);
  expect_stores_equal(prefix, recovered.store());
}

TEST_F(SnapshotFiles, RecoveryCleansTheJournalSoASecondCrashLosesNothing) {
  // Regression: recover() used to leave the damaged tail bytes on disk
  // while ingest() kept appending after them; replay stops at the first
  // damaged frame, so every batch acknowledged after the first recovery
  // was silently unrecoverable by a second crash.  recover() must hand
  // back a journal that is exactly the replayed prefix.
  u::FaultConfig faults;
  faults.seed = 23;
  faults.journal_truncate_rate = 1.0;
  u::FaultInjector injector(faults);
  const auto batches = make_batches(3, 12, 12);

  lk::DurableEntityStore safe(fpdl_config(), backend(), policy(/*every=*/0));
  ASSERT_TRUE(safe.ingest(batches[0]).ok());

  // Crash mid-append of batch 1: a partial frame lands on disk.
  lk::DurableEntityStore crasher(fpdl_config(), backend(&injector),
                                 policy(/*every=*/0));
  ASSERT_TRUE(crasher.recover().ok());
  EXPECT_FALSE(crasher.ingest(batches[1]).ok());

  // First recovery drops the damaged tail and must also remove it from
  // the journal blob...
  lk::DurableEntityStore second(fpdl_config(), backend(), policy(/*every=*/0));
  const auto first = second.recover();
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  EXPECT_GT(first->dropped_tail_bytes, 0u);
  EXPECT_EQ(first->batches_ingested, 1u);
  ASSERT_TRUE(second.ingest(batches[1]).ok());
  ASSERT_TRUE(second.ingest(batches[2]).ok());

  // ...so batches acknowledged after the recovery survive a SECOND
  // crash instead of sitting behind an unreadable frame.
  lk::DurableEntityStore third(fpdl_config(), backend(), policy(/*every=*/0));
  const auto again = third.recover();
  ASSERT_TRUE(again.ok()) << again.status().to_string();
  EXPECT_EQ(again->dropped_tail_bytes, 0u);
  EXPECT_EQ(again->batches_ingested, batches.size());
  lk::EntityStore uninterrupted(fpdl_config());
  for (const auto& batch : batches) {
    uninterrupted.ingest(batch);
  }
  expect_stores_equal(uninterrupted, third.store());
}

TEST(EntityStoreRestore, RejectsInconsistentShapes) {
  lk::EntityStore store(fpdl_config());
  Rng rng(13);
  const std::vector<lk::PersonRecord> two = lk::generate_people(2, rng);
  EXPECT_FALSE(store.restore(two, {0u}, 1).ok());  // ids not parallel
  EXPECT_FALSE(store.restore(two, {0u, 5u}, 2).ok());  // id >= total
  EXPECT_TRUE(store.restore(two, {0u, 1u}, 2).ok());
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.entity_count(), 2u);
  // FPDL comparator: restore derived the signatures the filter bank
  // needs, so a probe of a stored record finds it.
  const auto probe = store.probe(two[1]);
  ASSERT_FALSE(probe.matches.empty());
  EXPECT_EQ(probe.matches.front().record_index, 1u);
  EXPECT_EQ(probe.matches.front().entity_id, 1u);
}

TEST(EntityStoreRestore, RecoveryDerivesSignaturesUnderTheReadersConfig) {
  // A checkpoint written under alpha_words = 1 and recovered under
  // alpha_words = 2 must answer exactly like score_pair with signatures
  // built fresh under the reader's layout: DL <= k => |m xor n| <= 2k
  // only holds for signatures of that string under that layout.
  lk::ComparatorConfig writer_config = fpdl_config();
  writer_config.alpha_words = 1;
  lk::ComparatorConfig reader_config = fpdl_config();
  reader_config.alpha_words = 2;
  Rng rng(7);
  const auto people = lk::generate_people(2000, rng);
  auto backend = std::make_shared<st::MemObjectBackend>();
  {
    lk::DurableEntityStore writer(writer_config, backend, policy(1));
    for (std::size_t off = 0; off < people.size(); off += 100) {
      const std::span<const lk::PersonRecord> batch(people.data() + off, 100);
      ASSERT_TRUE(writer.ingest(batch).ok());
    }
  }
  lk::DurableEntityStore reader(reader_config, backend, policy(1));
  const auto report = reader.recover();
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  ASSERT_TRUE(report->snapshot_loaded);
  const lk::EntityStore& store = reader.store();
  ASSERT_EQ(store.size(), people.size());

  std::vector<lk::PersonRecord> sample(people.begin(), people.begin() + 500);
  const auto probes = lk::make_error_records(sample, {}, rng);
  std::vector<lk::RecordSignatures> stored_sigs;
  for (const lk::PersonRecord& r : store.records()) {
    stored_sigs.push_back(
        lk::build_record_signatures(r, reader_config.alpha_words));
  }
  std::size_t reference_matches = 0;
  for (std::size_t q = 0; q < probes.size(); ++q) {
    const lk::RecordSignatures query_sigs = lk::build_record_signatures(
        probes[q], reader_config.alpha_words);
    std::vector<lk::EntityStore::ProbeMatch> want;
    lk::CompareCounters counters;
    for (std::size_t i = 0; i < store.size(); ++i) {
      const double score =
          lk::score_pair(probes[q], store.records()[i], &query_sigs,
                         &stored_sigs[i], reader_config, counters);
      if (score >= reader_config.match_threshold) {
        want.push_back({static_cast<std::uint32_t>(i), store.entity_of(i),
                        score});
      }
    }
    std::stable_sort(want.begin(), want.end(),
                     [](const auto& a, const auto& b) {
                       return a.score > b.score;
                     });
    reference_matches += want.size();
    const auto got = store.probe(probes[q], 0);
    ASSERT_EQ(got.matches.size(), want.size()) << "probe " << q;
    for (std::size_t m = 0; m < want.size(); ++m) {
      EXPECT_EQ(got.matches[m].record_index, want[m].record_index)
          << "probe " << q << " #" << m;
      EXPECT_EQ(got.matches[m].score, want[m].score)
          << "probe " << q << " #" << m;
    }
  }
  EXPECT_GT(reference_matches, 0u);
}

}  // namespace
