// ClusterService: the server side of the elastic cluster protocol.
//
// One service instance hosts every *logical node* of the cluster (the
// transport addresses nodes exactly as it addresses shard workers: by
// the frame's shard field), so the same instance backs both transports —
// InProcessTransport calls it in place, a ShardServer hosts it behind
// real sockets — and the transport-equivalence property stays testable.
//
// Node state is not an in-memory map: each partition a node holds lives
// in a storage::MemObjectBackend as the same manifest/base/delta blob
// chain the durability layer uses (PR 5), under names scoped by node and
// partition.  That is what makes live rebalance honest: a migration is a
// sequence of real blob reads and writes (bulk base, catch-up deltas)
// with read-back verification, and storage faults (torn writes, acked-
// then-lost objects) injected at the backend surface as replica write
// failures the quorum/failover machinery must absorb.
//
//   n<node>/p<pid>/MANIFEST   pid, record count, delta count, chain hash
//   n<node>/p<pid>/base       encoded record list (the bulk of the state)
//   n<node>/p<pid>/delta-NNN  encoded record list (late-arriving writes)
//
// Every replica write is verified by read-back before it is acked
// (decode the stored chain, recompute the manifest); a write whose bytes
// did not land intact fails the attempt instead of acking a lie.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/ring.hpp"
#include "linkage/engine.hpp"
#include "linkage/shard_service.hpp"
#include "net/transport.hpp"
#include "storage/mem_object.hpp"
#include "util/fault.hpp"
#include "util/status.hpp"

namespace fbf::cluster {

// --- wire payloads ------------------------------------------------------

/// kReplicaWrite: install one blob of a partition's chain on one node.
/// `delta_seq` 0 is the base; N >= 1 is delta number N.  `blob` is an
/// encoded record list — the exact bytes stored, so a migration can
/// re-install fetched blobs verbatim.
struct ReplicaWrite {
  std::uint64_t pid = 0;
  std::uint32_t delta_seq = 0;
  std::string blob;
};

/// kReplicaQuery: link a stored partition against the broadcast right.
struct ReplicaQuery {
  std::uint64_t pid = 0;
};

/// kStateFetch: read one blob of a partition's chain (migration bulk
/// transfer + catch-up + verify all go through this).
struct StateFetch {
  enum class What : std::uint8_t { kManifest = 0, kBase = 1, kDelta = 2 };
  std::uint64_t pid = 0;
  What what = What::kManifest;
  std::uint32_t index = 0;  ///< delta number when what == kDelta
};

/// kStateDrop: remove a partition's chain after ownership handoff.
struct StateDrop {
  std::uint64_t pid = 0;
};

/// Decoded MANIFEST blob: enough to verify a transferred chain without
/// re-shipping it — counts plus an order-sensitive hash over the blobs.
struct PartitionManifest {
  std::uint64_t pid = 0;
  std::uint64_t record_count = 0;
  std::uint32_t delta_count = 0;
  std::uint64_t chain_hash = 0;

  friend bool operator==(const PartitionManifest&,
                         const PartitionManifest&) = default;
};

[[nodiscard]] std::string encode_record_list(
    std::span<const linkage::PersonRecord> records);
[[nodiscard]] fbf::util::Result<std::vector<linkage::PersonRecord>>
decode_record_list(std::string_view blob);

[[nodiscard]] std::string encode_replica_write(const ReplicaWrite& msg);
[[nodiscard]] fbf::util::Result<ReplicaWrite> decode_replica_write(
    std::string_view payload);

[[nodiscard]] std::string encode_replica_query(const ReplicaQuery& msg);
[[nodiscard]] fbf::util::Result<ReplicaQuery> decode_replica_query(
    std::string_view payload);

[[nodiscard]] std::string encode_state_fetch(const StateFetch& msg);
[[nodiscard]] fbf::util::Result<StateFetch> decode_state_fetch(
    std::string_view payload);

[[nodiscard]] std::string encode_state_drop(const StateDrop& msg);
[[nodiscard]] fbf::util::Result<StateDrop> decode_state_drop(
    std::string_view payload);

[[nodiscard]] std::string encode_manifest(const PartitionManifest& m);
[[nodiscard]] fbf::util::Result<PartitionManifest> decode_manifest(
    std::string_view blob);

struct ClusterServiceOptions {
  /// Keyed fault injection over every node's object store (put failure,
  /// torn write, lost object).  Default-off injects nothing.
  fbf::util::FaultConfig storage_faults;
};

class ClusterService {
 public:
  /// `right` must outlive the service (replica queries link against it);
  /// the LinkConfig is the driver's, so decisions match a local run.
  ClusterService(linkage::LinkConfig link,
                 std::span<const linkage::PersonRecord> right,
                 ClusterServiceOptions options = {});

  /// Processes one request payload; dispatches on ctx.type with
  /// ctx.shard as the logical node id.
  [[nodiscard]] fbf::util::Result<std::string> handle(
      const net::FrameContext& ctx, std::string_view payload);

  [[nodiscard]] net::ShardHandler handler() {
    return [this](const net::FrameContext& ctx, std::string_view payload) {
      return handle(ctx, payload);
    };
  }

  // Test hooks.
  [[nodiscard]] bool node_has_partition(NodeId node, std::uint64_t pid);
  [[nodiscard]] std::size_t node_partition_count(NodeId node);
  [[nodiscard]] const fbf::util::FaultCounters& storage_fault_counters()
      const noexcept {
    return injector_.counters();
  }

 private:
  [[nodiscard]] fbf::util::Result<std::string> handle_write(
      NodeId node, std::string_view payload);
  [[nodiscard]] fbf::util::Result<std::string> handle_query(
      NodeId node, std::string_view payload);
  [[nodiscard]] fbf::util::Result<std::string> handle_fetch(
      NodeId node, std::string_view payload);
  [[nodiscard]] fbf::util::Result<std::string> handle_drop(
      NodeId node, std::string_view payload);

  /// Reads the stored chain back, decodes every blob, and rewrites the
  /// MANIFEST to match.  Any unreadable/undecodable blob fails the call —
  /// this is the verify-before-ack step of every replica write.
  [[nodiscard]] fbf::util::Status rebuild_manifest(NodeId node,
                                                   std::uint64_t pid);

  /// Loads and decodes the full record chain (base + deltas in order).
  [[nodiscard]] fbf::util::Result<std::vector<linkage::PersonRecord>>
  load_chain(NodeId node, std::uint64_t pid);

  /// The broadcast right's LinkageContext (signatures + filter bank),
  /// built by the first replica query and shared by every later one.
  const linkage::LinkageContext& right_context();

  linkage::LinkConfig link_;
  std::span<const linkage::PersonRecord> right_;
  std::mutex context_mu_;  ///< guards the lazy right_context_ build
  std::optional<linkage::LinkageContext> right_context_;
  fbf::util::FaultInjector injector_;
  storage::MemObjectBackend store_;
  std::mutex mu_;  ///< serializes chain read-modify-write across workers
};

}  // namespace fbf::cluster
