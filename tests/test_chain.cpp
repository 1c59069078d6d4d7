// The checkpoint chain module (storage/chain) on its own, and the crash
// matrix over a cluster partition chain written by the code
// ClusterService runs (cluster::write_partition_blob, which goes through
// the same module and the sealed record-list codec).
//
// The partition property mirrors KillAtEveryByte.* for the entity store:
// a MANIFEST, base or delta cut at any byte, or with any single bit
// flipped, makes the walk fail — it never loads a wrong record list.
#include "storage/chain.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/service.hpp"
#include "linkage/person_gen.hpp"
#include "storage/mem_object.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace {

namespace cl = fbf::cluster;
namespace lk = fbf::linkage;
namespace st = fbf::storage;
namespace u = fbf::util;

constexpr std::uint64_t kTestMagic = 0x3154534554424600ull;  // "\0FBTEST1"

u::Status accept_all(std::string_view) { return {}; }

std::map<std::string, std::string> dump(st::MemObjectBackend& backend) {
  std::map<std::string, std::string> objects;
  const auto refs = backend.list("").value();
  for (const auto& ref : refs) {
    objects[ref.name] = backend.get(ref).value();
  }
  return objects;
}

std::unique_ptr<st::MemObjectBackend> restore_backend(
    const std::map<std::string, std::string>& objects) {
  auto backend = std::make_unique<st::MemObjectBackend>();
  for (const auto& [name, bytes] : objects) {
    backend->poke(st::BlobRef{name}, bytes);
  }
  return backend;
}

/// A one-base, one-delta chain under "a/" committed through the module.
struct SmallChain {
  st::MemObjectBackend backend;
  st::ChainManifest base_only;
  st::ChainManifest with_delta;
};

void commit_small_chain(SmallChain& c) {
  st::CheckpointChain chain(c.backend, "a/");
  c.base_only.base_blob = st::base_blob_name(2);
  c.base_only.base_batches = 2;
  c.base_only.base_records = 5;
  ASSERT_TRUE(chain
                  .commit(nullptr, c.base_only, c.base_only.base_blob,
                          st::seal_envelope(kTestMagic, 1, "base"), accept_all)
                  .ok());
  c.with_delta = c.base_only;
  c.with_delta.deltas.push_back({st::delta_blob_name(2, 3), 2, 3, 5, 7});
  ASSERT_TRUE(chain
                  .commit(&c.base_only, c.with_delta,
                          c.with_delta.deltas[0].blob,
                          st::seal_envelope(kTestMagic, 1, "delta"),
                          accept_all)
                  .ok());
}

// --- the chain module ---------------------------------------------------

TEST(CheckpointChain, EnvelopeRejectsEveryCutAndEveryFlippedBit) {
  const std::string blob = st::seal_envelope(kTestMagic, 3, "payload bytes");
  ASSERT_EQ(blob.size(), st::kEnvelopeBytes + 13);
  const auto opened = st::open_envelope(blob, kTestMagic, 3, "test");
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value(), "payload bytes");
  EXPECT_FALSE(st::open_envelope(blob, kTestMagic, 4, "test").ok());
  EXPECT_FALSE(st::open_envelope(blob + "x", kTestMagic, 3, "test").ok());
  for (std::size_t keep = 0; keep < blob.size(); ++keep) {
    EXPECT_FALSE(
        st::open_envelope(blob.substr(0, keep), kTestMagic, 3, "test").ok())
        << "kept " << keep;
  }
  for (std::size_t offset = 0; offset < blob.size(); ++offset) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = blob;
      flipped[offset] = static_cast<char>(
          static_cast<unsigned char>(flipped[offset]) ^ (1u << bit));
      const auto result = st::open_envelope(flipped, kTestMagic, 3, "test");
      EXPECT_FALSE(result.ok()) << "byte " << offset << " bit " << bit;
      if (!result.ok()) {
        EXPECT_EQ(result.status().code(), u::StatusCode::kDataLoss);
      }
    }
  }
}

TEST(CheckpointChain, CommitsUnderThePrefixAndWalksInOrder) {
  SmallChain c;
  commit_small_chain(c);
  // Names in the manifest are relative; the blobs live under the prefix.
  st::CheckpointChain chain(c.backend, "a/");
  const auto read = chain.read_manifest();
  ASSERT_TRUE(read.ok()) << read.status().to_string();
  EXPECT_EQ(read->base_blob, "base-2.snap");
  ASSERT_EQ(read->deltas.size(), 1u);
  EXPECT_EQ(read->deltas[0].blob, "delta-2-3.seg");
  EXPECT_EQ(read->batches_covered(), 3u);
  EXPECT_EQ(read->records_covered(), 7u);
  EXPECT_TRUE(c.backend.exists(st::BlobRef{"a/MANIFEST"}).value());
  EXPECT_TRUE(c.backend.exists(st::BlobRef{"a/base-2.snap"}).value());
  EXPECT_TRUE(c.backend.exists(st::BlobRef{"a/delta-2-3.seg"}).value());

  std::vector<std::string> order;
  const auto open = [](std::string_view bytes) {
    return std::string(st::open_envelope(bytes, kTestMagic, 1, "t").value());
  };
  const auto walked = chain.walk(
      read.value(),
      [&](std::string_view bytes) {
        order.push_back(open(bytes));
        return u::Status{};
      },
      [&](const st::ChainManifest::Segment& seg, std::string_view bytes) {
        EXPECT_EQ(seg.from_batches, 2u);
        order.push_back(open(bytes));
        return u::Status{};
      });
  ASSERT_TRUE(walked.ok()) << walked.to_string();
  EXPECT_EQ(order, (std::vector<std::string>{"base", "delta"}));

  // The same chain copied under another prefix has byte-equal manifests.
  auto copy = std::make_unique<st::MemObjectBackend>();
  for (const auto& [name, bytes] : dump(c.backend)) {
    copy->poke(st::BlobRef{"b/" + name.substr(2)}, bytes);
  }
  EXPECT_EQ(copy->get(st::BlobRef{"b/MANIFEST"}).value(),
            c.backend.get(st::BlobRef{"a/MANIFEST"}).value());
  EXPECT_TRUE(st::CheckpointChain(*copy, "b/")
                  .walk(read.value(), accept_all,
                        [](const st::ChainManifest::Segment&,
                           std::string_view) { return u::Status{}; })
                  .ok());
}

TEST(CheckpointChain, FailedBlobCheckRemovesTheBlobAndKeepsTheManifest) {
  SmallChain c;
  commit_small_chain(c);
  st::CheckpointChain chain(c.backend, "a/");
  const std::string manifest = c.backend.get(chain.manifest_ref()).value();
  st::ChainManifest next = c.with_delta;
  next.deltas.push_back({st::delta_blob_name(3, 4), 3, 4, 7, 9});
  const auto committed = chain.commit(
      &c.with_delta, next, next.deltas.back().blob, "bytes",
      [](std::string_view) { return u::Status::data_loss("rejected"); });
  ASSERT_FALSE(committed.ok());
  EXPECT_EQ(committed.status().code(), u::StatusCode::kDataLoss);
  EXPECT_FALSE(c.backend.exists(st::BlobRef{"a/delta-3-4.seg"}).value());
  EXPECT_EQ(c.backend.get(chain.manifest_ref()).value(), manifest);
}

/// Acks the next `lose` MANIFEST puts without keeping them.
class LosesManifestPuts final : public st::StorageBackend {
 public:
  int lose = 0;
  st::MemObjectBackend inner;

  u::Status put(const st::BlobRef& ref, std::string_view bytes) override {
    if (lose > 0 && ref.name.ends_with(st::kManifestName)) {
      --lose;
      return inner.remove(ref);
    }
    return inner.put(ref, bytes);
  }
  u::Result<std::string> get(const st::BlobRef& ref) override {
    return inner.get(ref);
  }
  u::Result<std::vector<st::BlobRef>> list(std::string_view prefix) override {
    return inner.list(prefix);
  }
  u::Status remove(const st::BlobRef& ref) override {
    return inner.remove(ref);
  }
  u::Result<bool> exists(const st::BlobRef& ref) override {
    return inner.exists(ref);
  }
  u::Result<std::unique_ptr<st::AppendHandle>> open_append(
      const st::BlobRef& ref, bool truncate) override {
    return inner.open_append(ref, truncate);
  }
  [[nodiscard]] std::string description() const override {
    return "loses-manifest(mem)";
  }
};

TEST(CheckpointChain, LostManifestPutRestoresThePreviousManifest) {
  LosesManifestPuts backend;
  st::CheckpointChain chain(backend, "");
  st::ChainManifest first;
  first.base_blob = st::base_blob_name(1);
  first.base_batches = 1;
  ASSERT_TRUE(
      chain.commit(nullptr, first, first.base_blob, "b1", accept_all).ok());
  const std::string manifest = backend.get(chain.manifest_ref()).value();

  st::ChainManifest second = first;
  second.deltas.push_back({st::delta_blob_name(1, 2), 1, 2, 0, 0});
  backend.lose = 1;
  EXPECT_FALSE(
      chain.commit(&first, second, second.deltas[0].blob, "d", accept_all)
          .ok());
  EXPECT_EQ(backend.get(chain.manifest_ref()).value(), manifest);
  EXPECT_FALSE(backend.exists(st::BlobRef{"delta-1-2.seg"}).value());

  // With no previous manifest, a lost swap leaves no manifest at all.
  LosesManifestPuts fresh;
  fresh.lose = 1;
  st::CheckpointChain empty(fresh, "");
  EXPECT_FALSE(
      empty.commit(nullptr, first, first.base_blob, "b1", accept_all).ok());
  EXPECT_EQ(fresh.inner.object_count(), 0u);
}

TEST(CheckpointChain, SweepAndDropStayUnderThePrefix) {
  SmallChain c;
  commit_small_chain(c);
  c.backend.poke(st::BlobRef{"a/delta-7-8.seg"}, "orphan");
  c.backend.poke(st::BlobRef{"a/base-9.snap"}, "orphan");
  c.backend.poke(st::BlobRef{"a/journal"}, "kept");
  c.backend.poke(st::BlobRef{"b/base-9.snap"}, "other chain");
  st::CheckpointChain chain(c.backend, "a/");
  chain.sweep(c.with_delta);
  EXPECT_FALSE(c.backend.exists(st::BlobRef{"a/delta-7-8.seg"}).value());
  EXPECT_FALSE(c.backend.exists(st::BlobRef{"a/base-9.snap"}).value());
  EXPECT_TRUE(c.backend.exists(st::BlobRef{"a/base-2.snap"}).value());
  EXPECT_TRUE(c.backend.exists(st::BlobRef{"a/delta-2-3.seg"}).value());
  EXPECT_TRUE(c.backend.exists(st::BlobRef{"a/journal"}).value());
  EXPECT_TRUE(c.backend.exists(st::BlobRef{"b/base-9.snap"}).value());

  ASSERT_TRUE(chain.drop().ok());
  EXPECT_TRUE(c.backend.list("a/").value().empty());
  EXPECT_TRUE(c.backend.exists(st::BlobRef{"b/base-9.snap"}).value());
  EXPECT_EQ(chain.read_manifest().status().code(), u::StatusCode::kNotFound);
}

TEST(CheckpointChain, WalkReportsAMissingBlobAsDataLoss) {
  SmallChain c;
  commit_small_chain(c);
  ASSERT_TRUE(c.backend.remove(st::BlobRef{"a/delta-2-3.seg"}).ok());
  st::CheckpointChain chain(c.backend, "a/");
  const auto walked = chain.walk(
      c.with_delta, accept_all,
      [](const st::ChainManifest::Segment&, std::string_view) {
        return u::Status{};
      });
  EXPECT_EQ(walked.code(), u::StatusCode::kDataLoss);
}

// --- the cluster partition chain ----------------------------------------

constexpr const char* kPartition = "n00000001/p0000000000000063/";

struct PartitionScenario {
  std::vector<lk::PersonRecord> records;  ///< base 6, delta 1: 3, delta 2: 2
  std::map<std::string, std::string> objects;
};

PartitionScenario build_partition() {
  PartitionScenario s;
  u::Rng rng(61);
  s.records = lk::generate_people(11, rng);
  const std::span<const lk::PersonRecord> all(s.records);
  st::MemObjectBackend backend;
  const auto write = [&](std::uint32_t seq, std::size_t from, std::size_t n) {
    return cl::write_partition_blob(
        backend, kPartition, seq,
        cl::encode_record_list(all.subspan(from, n)));
  };
  EXPECT_TRUE(write(0, 0, 6).ok());
  EXPECT_TRUE(write(1, 6, 3).ok());
  EXPECT_TRUE(write(2, 9, 2).ok());
  s.objects = dump(backend);
  EXPECT_EQ(s.objects.size(), 4u);  // MANIFEST, base, two deltas
  return s;
}

void expect_records(const std::vector<lk::PersonRecord>& want,
                    const std::vector<lk::PersonRecord>& got) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "record " << i;
    EXPECT_EQ(got[i].last_name, want[i].last_name) << "record " << i;
  }
}

TEST(PartitionKillAtEveryByte, IntactChainLoadsBaseThenDeltas) {
  const auto s = build_partition();
  auto backend = restore_backend(s.objects);
  const auto loaded = cl::read_partition_chain(*backend, kPartition);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  expect_records(s.records, loaded.value());
  EXPECT_EQ(cl::read_partition_chain(*backend, "n00000002/p01/")
                .status()
                .code(),
            u::StatusCode::kNotFound);
}

TEST(PartitionKillAtEveryByte, TruncatedBlobIsAlwaysDetected) {
  const auto s = build_partition();
  for (const auto& [name, bytes] : s.objects) {
    for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
      auto backend = restore_backend(s.objects);
      backend->poke(st::BlobRef{name}, bytes.substr(0, keep));
      const auto loaded = cl::read_partition_chain(*backend, kPartition);
      EXPECT_FALSE(loaded.ok()) << name << " cut to " << keep << " loaded";
    }
  }
}

TEST(PartitionKillAtEveryByte, FlippedByteIsAlwaysDetected) {
  const auto s = build_partition();
  u::Rng rng(62);
  for (const auto& [name, bytes] : s.objects) {
    for (std::size_t offset = 0; offset < bytes.size(); ++offset) {
      const int bit = static_cast<int>(rng.below(8));
      std::string flipped = bytes;
      flipped[offset] = static_cast<char>(
          static_cast<unsigned char>(flipped[offset]) ^ (1u << bit));
      auto backend = restore_backend(s.objects);
      backend->poke(st::BlobRef{name}, flipped);
      const auto loaded = cl::read_partition_chain(*backend, kPartition);
      EXPECT_FALSE(loaded.ok())
          << name << " byte " << offset << " bit " << bit << " loaded";
      if (!loaded.ok()) {
        EXPECT_EQ(loaded.status().code(), u::StatusCode::kDataLoss);
      }
    }
  }
}

TEST(PartitionKillAtEveryByte, OrphanBlobsAreIgnored) {
  const auto s = build_partition();
  for (const char* orphan : {"delta-2-3.seg", "base-9.snap"}) {
    auto backend = restore_backend(s.objects);
    backend->poke(st::BlobRef{std::string(kPartition) + orphan},
                  std::string(37, '\xBE'));
    const auto loaded = cl::read_partition_chain(*backend, kPartition);
    ASSERT_TRUE(loaded.ok()) << orphan << " tripped the walk";
    expect_records(s.records, loaded.value());
  }
}

TEST(PartitionKillAtEveryByte, FaultedWritesNeverLeaveAWrongChain) {
  // Torn, failed and acked-then-lost puts under retry: after every
  // attempt the chain either reads back exactly the acked writes or
  // fails to read — it never serves records nobody acked.
  u::Rng people_rng(63);
  const auto people = lk::generate_people(40, people_rng);
  const std::span<const lk::PersonRecord> all(people);
  std::size_t acked_writes = 0;
  std::size_t full_reads = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    u::FaultConfig config;
    config.seed = seed;
    config.put_fail_rate = 0.15;
    config.torn_write_rate = 0.15;
    config.lost_object_rate = 0.15;
    u::FaultInjector faults(config);
    st::MemObjectBackend backend(&faults);
    std::size_t acked = 0;  // records covered by acked writes
    for (std::uint32_t seq = 0; seq < 8; ++seq) {
      const std::size_t from = seq == 0 ? 0 : 12 + 4 * (seq - 1);
      const std::size_t n = seq == 0 ? 12 : 4;
      const std::string blob = cl::encode_record_list(all.subspan(from, n));
      bool ok = false;
      for (int attempt = 0; attempt < 4 && !ok; ++attempt) {
        ok = cl::write_partition_blob(backend, kPartition, seq, blob).ok();
        const auto loaded = cl::read_partition_chain(backend, kPartition);
        if (ok) {
          acked = from + n;
          ++acked_writes;
        }
        if (loaded.ok()) {
          ++full_reads;
          ASSERT_EQ(loaded.value().size(), acked)
              << "seed " << seed << " seq " << seq;
          for (std::size_t i = 0; i < acked; ++i) {
            ASSERT_EQ(loaded.value()[i].id, people[i].id);
          }
        }
      }
      if (!ok) {
        break;  // a replica that missed a write is stale from here on
      }
    }
  }
  EXPECT_GT(acked_writes, 24u);
  EXPECT_GT(full_reads, 24u);
}

}  // namespace
