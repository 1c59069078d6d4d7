// ClusterService: the server side of the elastic cluster protocol.
//
// One service instance hosts every *logical node* of the cluster (the
// transport addresses nodes exactly as it addresses shard workers: by
// the frame's shard field), so the same instance backs both transports —
// InProcessTransport calls it in place, a ShardServer hosts it behind
// real sockets — and the transport-equivalence property stays testable.
//
// Node state is not an in-memory map: each partition a node holds lives
// in a storage::MemObjectBackend as a storage::CheckpointChain — the same
// manifest/base/delta module the entity store checkpoints through —
// under the prefix n<node>/p<pid>/.  That is what makes live rebalance
// honest: a migration is a sequence of real blob reads and writes (bulk
// base, catch-up deltas) with read-back verification, and storage faults
// (torn writes, acked-then-lost objects) injected at the backend surface
// as replica write failures the quorum/failover machinery must absorb.
//
//   n<node>/p<pid>/MANIFEST           base + deltas, names relative
//   n<node>/p<pid>/base-0.snap        sealed record list (the bulk)
//   n<node>/p<pid>/delta-<N-1>-<N>.seg  sealed record list (write N)
//
// A replica write lands only the blob it carries: the chain's commit
// reads that blob and the new manifest back before the write is acked,
// O(blob) rather than O(chain).  Deltas land strictly in order; a resent
// write that already landed acks again.
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

/// The stored form of a partition's base and deltas: records in a sealed
/// envelope (storage/chain.hpp), so a torn or flipped blob never decodes.
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

/// Lands replica write `seq` (0 = base, N >= 1 = delta N) of the
/// partition chain under `prefix`, verified by read-back; returns the
/// manifest bytes.  A write that already landed with the same bytes acks
/// again.  Otherwise a base replaces whatever chain was held, and delta N
/// must follow the held N - 1 deltas (kFailedPrecondition if not).
[[nodiscard]] fbf::util::Result<std::string> write_partition_blob(
    storage::StorageBackend& backend, std::string prefix, std::uint32_t seq,
    std::string_view blob);

/// The partition chain under `prefix` as one record list, base then
/// deltas.  kNotFound when no chain is held; kDataLoss when any blob is
/// missing, damaged or disagrees with the manifest.
[[nodiscard]] fbf::util::Result<std::vector<linkage::PersonRecord>>
read_partition_chain(storage::StorageBackend& backend, std::string prefix);

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

 private:
  [[nodiscard]] fbf::util::Result<std::string> handle_write(
      NodeId node, std::string_view payload);
  [[nodiscard]] fbf::util::Result<std::string> handle_query(
      NodeId node, std::string_view payload);
  [[nodiscard]] fbf::util::Result<std::string> handle_fetch(
      NodeId node, std::string_view payload);
  [[nodiscard]] fbf::util::Result<std::string> handle_drop(
      NodeId node, std::string_view payload);

  /// The broadcast right's LinkageContext (its filter bank),
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
