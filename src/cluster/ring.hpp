// Consistent-hash ring with seeded virtual nodes.
//
// A fixed-N modulo scatter re-partitions the whole key space whenever N
// changes; a production cluster adds and loses nodes routinely, so
// partitioning must be *incremental*: a membership change may move only
// the keys whose arc actually changed hands (~1/N of them), everything
// else stays put.  Classic consistent hashing does exactly that.  Each
// node projects `vnodes_per_node` points onto a u64 ring; a key belongs to
// the first point clockwise from its hash, and its replica set is the
// next R *distinct* nodes along the ring.
//
// Two properties matter for this repo's style of verification:
//  * Determinism across processes: every point is a pure function of
//    (seed, node, vnode-index) via SplitMix64 — no std::hash, no
//    insertion-order dependence — so a driver, a server and a test can
//    each build the ring independently and agree on every placement.
//  * Stable partition identity: partition_of(key) returns the covering
//    vnode *point value* (a plain u64), which remains a valid ring
//    location even after the node that minted it leaves.  The elastic
//    layer uses those points as durable partition ids: state keyed by a
//    point can be re-resolved to owners under any later membership.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/status.hpp"

namespace fbf::cluster {

/// Cluster node identity.  Plain integers: the transport layer already
/// addresses logical shard workers by index, and fault injection keys
/// off the same value.
using NodeId = std::uint32_t;

struct RingOptions {
  std::uint64_t seed = 0;             ///< keys every vnode point draw
  std::size_t vnodes_per_node = 64;   ///< ring points per node (smoothing)
};

class HashRing {
 public:
  explicit HashRing(RingOptions options = {});

  /// Projects `node`'s vnode points onto the ring.  Adding a present
  /// node is rejected (membership is a set).
  fbf::util::Status add_node(NodeId node);

  /// Removes every point `node` owns; its arcs merge into the ring
  /// successors.  Removing an absent node is rejected.
  fbf::util::Status remove_node(NodeId node);

  [[nodiscard]] bool contains(NodeId node) const noexcept;
  [[nodiscard]] std::size_t node_count() const noexcept {
    return members_.size();
  }
  [[nodiscard]] std::size_t point_count() const noexcept {
    return points_.size();
  }
  /// Current membership, sorted ascending.
  [[nodiscard]] std::vector<NodeId> nodes() const { return members_; }

  /// The vnode point covering `key_hash`: first point clockwise (with
  /// wraparound).  This is the key's durable partition id.  Empty ring
  /// returns 0.
  [[nodiscard]] std::uint64_t partition_of(std::uint64_t key_hash) const
      noexcept;

  /// The first `count` *distinct* nodes clockwise from `key_hash` — the
  /// key's replica group, primary first.  Returns fewer when the ring
  /// has fewer distinct nodes.  Also accepts a partition id (a point is
  /// just a ring position).
  [[nodiscard]] std::vector<NodeId> replicas(std::uint64_t key_hash,
                                             std::size_t count) const;

  /// replicas(key_hash, 1)[0]; the ring must be non-empty.
  [[nodiscard]] NodeId owner(std::uint64_t key_hash) const;

  /// Position hashes for ring keys, seeded so placements are a pure
  /// function of (seed, key) and reproducible across processes.
  [[nodiscard]] static std::uint64_t key_hash(std::string_view key,
                                              std::uint64_t seed) noexcept;
  [[nodiscard]] static std::uint64_t key_hash(std::uint64_t key,
                                              std::uint64_t seed) noexcept;

 private:
  /// Pure draw for one vnode point: f(seed, node, vnode index).
  [[nodiscard]] std::uint64_t vnode_point(NodeId node,
                                          std::size_t index) const noexcept;

  RingOptions options_;
  /// Sorted by (point, node): point collisions across nodes (vanishingly
  /// rare at 64 bits) break ties by node id, keeping lookups a pure
  /// function of the membership *set* rather than insertion history.
  std::vector<std::pair<std::uint64_t, NodeId>> points_;
  std::vector<NodeId> members_;  ///< sorted
};

}  // namespace fbf::cluster
