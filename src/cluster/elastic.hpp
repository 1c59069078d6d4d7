// Elastic sharded linkage: replica groups, quorum writes, consistent-hash
// partitioning and live rebalance under fault injection.
//
// This is the repo's one shard driver.  A static cluster is the special
// case replication = 1, nodes = {0..N-1} and an empty schedule: every
// partition has one home, a failed node's partitions are dropped and
// reported (dropped_partitions / dropped_pairs), and the run completes.
// The general case models the cluster the ROADMAP's north star needs —
// membership changes while a run is in flight, and node deaths must not
// cost recall:
//
//  * Placement is a consistent-hash ring (cluster/ring.hpp): the left
//    list is partitioned by ring arc, and a membership change moves only
//    the arcs that changed hands (~1/N of keys), not the whole key space.
//  * Each partition is written to R replicas (the next R distinct nodes
//    clockwise) before queries run; the write phase needs W acks to call
//    a partition healthy.  Queries take any live replica, failing over
//    (with the shared RetryPolicy's backoff + optional full jitter)
//    across the group — so with R >= 2, any single node death yields
//    dropped_pairs == 0 and decisions byte-identical to a fault-free run.
//  * A scripted schedule injects membership events between queries:
//    kills, revivals, node add/remove.  Add/remove triggers live
//    rebalance — partition state migrates to its new replica set through
//    the storage manifest/base/delta chain (bulk base, catch-up deltas,
//    verify, atomic handoff) while queries continue, and a MigrationKill
//    can drop the source or dest at every protocol step (the crash
//    matrix in cluster/rebalance.hpp).
//
// Everything is deterministic: ring placement, fault draws, jitter and
// the event schedule are all seeded, so a failing schedule replays
// bit-for-bit and equivalence is asserted via decision fingerprints.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "cluster/rebalance.hpp"
#include "cluster/ring.hpp"
#include "linkage/engine.hpp"
#include "net/transport.hpp"
#include "util/fault.hpp"
#include "util/retry.hpp"

namespace fbf::cluster {

/// One scripted membership event, fired just before query number
/// `at_query` (0-based, in partition-id order) of the query phase.
struct ElasticEvent {
  enum class Kind : std::uint8_t {
    kKillNode,    ///< node stops answering (every call to it fails)
    kReviveNode,  ///< a killed node answers again (state still intact)
    kAddNode,     ///< new member joins the ring -> live rebalance
    kRemoveNode,  ///< member leaves the ring -> live rebalance
  };
  Kind kind = Kind::kKillNode;
  NodeId node = 0;
  std::size_t at_query = 0;
  /// For kAddNode/kRemoveNode: kill a participant at a chosen step of
  /// the event's first migration (crash-matrix injection).
  std::optional<MigrationKill> kill_during;
};

struct ElasticSchedule {
  std::vector<ElasticEvent> events;
};

/// Fault injection plus the retry policy that answers it.  On the
/// in-process transport backoff is *simulated*: the delay a real
/// scheduler would sleep is added to ElasticResult::backoff_ms instead of
/// slept, keeping runs fast and deterministic.  On a real-time transport
/// (TCP) the same delays are slept for real.
struct ShardFaultPolicy {
  fbf::util::FaultConfig faults;
  /// Bounded exponential backoff, shared with the transport layer.
  fbf::util::RetryPolicy retry;
};

struct ElasticConfig {
  /// Initial ring membership.
  std::vector<NodeId> nodes = {0, 1, 2, 3};
  /// Replicas per partition (R).  Clamped to the live member count.
  std::size_t replication = 2;
  /// Write acks required to call a partition healthy (W <= R).  Failing
  /// quorum is *reported*, never fatal: queries still run against
  /// whatever replicas acked.
  std::size_t write_quorum = 1;
  /// Records are placed on the ring by hash(record id): a uniform
  /// spread (lossless either way — the right list is always broadcast,
  /// so placement affects balance and movement, never recall).
  RingOptions ring;
  /// Fraction of the left list that arrives *after* the base writes, as
  /// catch-up deltas during the query phase (tail of the list; 0 = all
  /// records up front).  Exercises kDeltaTraffic during rebalance.
  double late_fraction = 0.0;
  linkage::LinkConfig link;  ///< comparator each replica runs
  /// Transport fault injection + the retry/backoff policy shared by
  /// replica writes, queries and migration calls.  nullopt = fault-free.
  std::optional<ShardFaultPolicy> fault;
  /// Storage faults inside every node's object store (local service runs
  /// only; ignored when `transport` is supplied).
  fbf::util::FaultConfig storage_faults;
  /// Delivery backend.  nullptr = a private InProcessTransport over a
  /// local ClusterService (the deterministic reference); point it at a
  /// TcpTransport whose server hosts a ClusterService handler to run the
  /// same protocol over real sockets.  With an external transport, fault
  /// injection belongs to that transport and its server.
  net::ShardTransport* transport = nullptr;
};

/// Per-node tallies across the run.
struct ReplicaCounters {
  NodeId node = 0;
  std::uint64_t write_attempts = 0;
  std::uint64_t write_failures = 0;
  std::uint64_t query_attempts = 0;
  std::uint64_t query_failures = 0;
  std::uint64_t queries_served = 0;
  double busy_ms = 0.0;  ///< link time spent serving queries
};

/// Outcome of one partition's query.
struct PartitionReply {
  std::uint64_t pid = 0;
  std::size_t records = 0;  ///< left records homed here (base + late)
  bool completed = false;
  NodeId served_by = 0;  ///< replica that answered (when completed)
  std::uint64_t pairs = 0;
  std::uint64_t matches = 0;
  std::uint64_t true_positives = 0;
  double link_ms = 0.0;
};

struct ElasticResult {
  /// Sorted by partition id — a stable order for fingerprinting.
  std::vector<PartitionReply> partitions;
  std::uint64_t total_pairs = 0;
  std::uint64_t total_matches = 0;
  std::uint64_t total_true_positives = 0;
  double sum_ms = 0.0;       ///< total link work across replicas
  double makespan_ms = 0.0;  ///< busiest replica (distributed wall-clock)
  double backoff_ms = 0.0;   ///< retry delay accumulated (simulated or slept)

  // Write phase.
  std::uint64_t write_acks = 0;  ///< successful replica base/delta installs
  std::size_t write_quorum_failures = 0;  ///< partitions acked by < W replicas

  // Query phase.
  std::uint64_t retries = 0;    ///< failed attempts (writes + queries)
  std::uint64_t failovers = 0;  ///< queries answered by a non-primary replica
  std::size_t dropped_partitions = 0;  ///< no replica could answer
  std::uint64_t dropped_pairs = 0;     ///< pair space never evaluated
  std::size_t dropped_records = 0;     ///< left records on dropped partitions

  std::size_t events_applied = 0;
  MigrationStats migration;
  std::vector<ReplicaCounters> replicas;  ///< sorted by node id

  /// Order-insensitive digest of every match decision: folds the sorted
  /// (pid, pairs, matches, true_positives) tuples.  Two runs produced
  /// the same decisions iff their fingerprints are equal — the byte-
  /// identity assertion behind every failover/rebalance equivalence test.
  [[nodiscard]] std::uint64_t decision_fingerprint() const noexcept;
};

/// Runs the elastic linkage: partition the left list over the ring,
/// replicate each partition to R nodes, then query every partition in
/// partition-id order while the schedule injects kills and membership
/// changes.  The right list is broadcast (replicate-right), so placement
/// can never drop a true pair — only an unanswerable partition can, and
/// with R >= 2 a single failure leaves none.
[[nodiscard]] ElasticResult link_elastic(
    std::span<const linkage::PersonRecord> left,
    std::span<const linkage::PersonRecord> right, const ElasticConfig& config,
    const ElasticSchedule& schedule = {});

}  // namespace fbf::cluster
