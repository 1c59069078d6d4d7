// Elastic cluster properties.  The headline acceptance criteria:
//
//  * fault-free elastic == exhaustive (replicate-right is lossless under
//    ring partitioning too);
//  * with R=2, EVERY single-node kill schedule — every node x every kill
//    position, including kills at every step of a live rebalance on both
//    the source and dest side — yields dropped_pairs == 0 and match
//    decisions identical (fingerprint-equal) to the static fault-free
//    cluster;
//  * membership changes rebalance through the manifest/base/delta chain
//    while queries continue;
//  * the same protocol over real TCP sockets produces the same decisions.
#include "cluster/elastic.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/rebalance.hpp"
#include "cluster/service.hpp"
#include "linkage/person_gen.hpp"
#include "net/tcp.hpp"
#include "util/rng.hpp"

namespace {

namespace cl = fbf::cluster;
namespace lk = fbf::linkage;
namespace net = fbf::net;
namespace u = fbf::util;

struct Fixture {
  std::vector<lk::PersonRecord> clean;
  std::vector<lk::PersonRecord> error;

  explicit Fixture(std::size_t n, std::uint64_t seed = 5) {
    u::Rng rng(seed);
    clean = lk::generate_people(n, rng);
    lk::RecordErrorModel model;
    model.field_typo_rate = 0.25;
    error = lk::make_error_records(clean, model, rng);
  }
};

cl::ElasticConfig make_config() {
  cl::ElasticConfig config;
  config.nodes = {0, 1, 2};
  config.replication = 2;
  config.write_quorum = 1;
  config.ring.seed = 11;
  config.ring.vnodes_per_node = 4;  // a handful of partitions per node
  config.link.comparator =
      lk::make_point_threshold_config(lk::FieldStrategy::kFpdl);
  return config;
}

cl::ElasticSchedule kill_at(cl::NodeId node, std::size_t at_query) {
  cl::ElasticSchedule schedule;
  schedule.events.push_back(
      {cl::ElasticEvent::Kind::kKillNode, node, at_query, std::nullopt});
  return schedule;
}

TEST(Elastic, FaultFreeMatchesExhaustive) {
  const Fixture fx(80);
  const auto config = make_config();
  const auto result = cl::link_elastic(fx.clean, fx.error, config);
  const auto baseline = lk::link_exhaustive(fx.clean, fx.error, config.link);
  EXPECT_EQ(result.total_matches, baseline.matches);
  EXPECT_EQ(result.total_true_positives, baseline.true_positives);
  EXPECT_EQ(result.total_pairs, baseline.candidate_pairs)
      << "broadcast right: pair space must be the full product";
  EXPECT_EQ(result.dropped_partitions, 0u);
  EXPECT_EQ(result.dropped_pairs, 0u);
  EXPECT_EQ(result.write_quorum_failures, 0u);
  EXPECT_EQ(result.retries, 0u);
  EXPECT_GT(result.partitions.size(), 1u);
  std::size_t records = 0;
  for (const auto& p : result.partitions) {
    EXPECT_TRUE(p.completed);
    records += p.records;
  }
  EXPECT_EQ(records, fx.clean.size());
}

TEST(Elastic, RunsAreDeterministic) {
  const Fixture fx(60);
  const auto config = make_config();
  const auto a = cl::link_elastic(fx.clean, fx.error, config);
  const auto b = cl::link_elastic(fx.clean, fx.error, config);
  EXPECT_EQ(a.decision_fingerprint(), b.decision_fingerprint());
  EXPECT_EQ(a.total_matches, b.total_matches);
  EXPECT_EQ(a.write_acks, b.write_acks);
}

TEST(Elastic, EverySingleNodeKillKeepsEveryDecision) {
  // The headline: R=2 means every partition has two replicas, so no
  // single node death may drop a partition or change a decision —
  // whichever query the kill lands before.
  const Fixture fx(48);
  const auto config = make_config();
  const auto reference = cl::link_elastic(fx.clean, fx.error, config);
  ASSERT_EQ(reference.dropped_pairs, 0u);
  const std::size_t queries = reference.partitions.size();
  for (const cl::NodeId victim : config.nodes) {
    for (std::size_t q = 0; q <= queries; ++q) {
      const auto result =
          cl::link_elastic(fx.clean, fx.error, config, kill_at(victim, q));
      EXPECT_EQ(result.dropped_pairs, 0u)
          << "kill node " << victim << " before query " << q;
      EXPECT_EQ(result.decision_fingerprint(),
                reference.decision_fingerprint())
          << "kill node " << victim << " before query " << q;
      EXPECT_EQ(result.total_matches, reference.total_matches);
    }
  }
}

TEST(Elastic, FailoversAreCountedWhenAPrimaryDies) {
  const Fixture fx(48);
  const auto config = make_config();
  const auto result =
      cl::link_elastic(fx.clean, fx.error, config, kill_at(0, 0));
  EXPECT_EQ(result.dropped_pairs, 0u);
  // Node 0 owned some partitions as primary; their queries were served
  // by the surviving replica.
  EXPECT_GT(result.failovers, 0u);
  EXPECT_GT(result.retries, 0u);
}

TEST(Elastic, KillDuringRebalanceCrashMatrix) {
  // Add a node mid-run and kill a participant at every step of the
  // migration protocol, on both the source and the dest side.  Under
  // every cell: zero dropped pairs, decisions identical to the static
  // fault-free cluster.  Ownership flips only at kHandoff, so either
  // the old or the new replica set is authoritative and complete.
  const Fixture fx(48);
  const auto config = make_config();
  const auto reference = cl::link_elastic(fx.clean, fx.error, config);
  for (const cl::MigrationStep step : cl::all_migration_steps()) {
    for (const auto victim : {cl::MigrationKill::Victim::kSource,
                              cl::MigrationKill::Victim::kDest}) {
      cl::ElasticSchedule schedule;
      cl::ElasticEvent event;
      event.kind = cl::ElasticEvent::Kind::kAddNode;
      event.node = 3;
      event.at_query = 1;
      event.kill_during = cl::MigrationKill{step, victim};
      schedule.events.push_back(event);
      const auto result =
          cl::link_elastic(fx.clean, fx.error, config, schedule);
      const std::string label =
          std::string(cl::migration_step_name(step)) + "/" +
          (victim == cl::MigrationKill::Victim::kSource ? "source" : "dest");
      EXPECT_GE(result.migration.partitions_considered, 1u) << label;
      EXPECT_EQ(result.dropped_pairs, 0u) << label;
      EXPECT_EQ(result.decision_fingerprint(),
                reference.decision_fingerprint())
          << label;
      EXPECT_EQ(result.migration.partitions_considered,
                result.migration.completed + result.migration.aborted)
          << label;
    }
  }
}

TEST(Elastic, AddNodeRebalancesAndKeepsDecisions) {
  const Fixture fx(60);
  const auto config = make_config();
  const auto reference = cl::link_elastic(fx.clean, fx.error, config);
  cl::ElasticSchedule schedule;
  schedule.events.push_back(
      {cl::ElasticEvent::Kind::kAddNode, 3, 2, std::nullopt});
  const auto result = cl::link_elastic(fx.clean, fx.error, config, schedule);
  EXPECT_EQ(result.events_applied, 1u);
  EXPECT_GE(result.migration.partitions_considered, 1u);
  EXPECT_GT(result.migration.completed, 0u);
  EXPECT_EQ(result.migration.aborted, 0u);
  EXPECT_GT(result.migration.base_transfers, 0u);
  EXPECT_GT(result.migration.bytes_moved, 0u);
  EXPECT_EQ(result.dropped_pairs, 0u);
  EXPECT_EQ(result.decision_fingerprint(), reference.decision_fingerprint());
}

TEST(Elastic, RemoveNodeRebalancesAndKeepsDecisions) {
  const Fixture fx(60);
  const auto config = make_config();
  const auto reference = cl::link_elastic(fx.clean, fx.error, config);
  cl::ElasticSchedule schedule;
  schedule.events.push_back(
      {cl::ElasticEvent::Kind::kRemoveNode, 2, 1, std::nullopt});
  const auto result = cl::link_elastic(fx.clean, fx.error, config, schedule);
  // Node 2's partitions re-home to the survivors: state flows to new
  // replicas (the leaving node is alive and serves as a source), then
  // its copies are dropped.
  EXPECT_GE(result.migration.partitions_considered, 1u);
  EXPECT_GT(result.migration.completed, 0u);
  EXPECT_EQ(result.dropped_pairs, 0u);
  EXPECT_EQ(result.decision_fingerprint(), reference.decision_fingerprint());
}

TEST(Elastic, LateArrivalsChangeTimingNotDecisions) {
  // A late fraction turns the tail of each partition into catch-up
  // deltas delivered mid-run.  Same records, same order — decisions
  // must not move, with or without a concurrent rebalance.
  const Fixture fx(60);
  auto config = make_config();
  const auto reference = cl::link_elastic(fx.clean, fx.error, config);
  config.late_fraction = 0.4;
  const auto late = cl::link_elastic(fx.clean, fx.error, config);
  EXPECT_EQ(late.decision_fingerprint(), reference.decision_fingerprint());
  EXPECT_EQ(late.dropped_pairs, 0u);

  cl::ElasticSchedule schedule;
  schedule.events.push_back(
      {cl::ElasticEvent::Kind::kAddNode, 3, 1, std::nullopt});
  const auto rebalanced =
      cl::link_elastic(fx.clean, fx.error, config, schedule);
  EXPECT_EQ(rebalanced.decision_fingerprint(),
            reference.decision_fingerprint());
  EXPECT_EQ(rebalanced.dropped_pairs, 0u);
  EXPECT_GT(rebalanced.migration.delta_transfers +
                rebalanced.migration.base_transfers,
            0u);
}

TEST(Elastic, StorageFaultsAreAbsorbedByRetryAndQuorum) {
  // Torn writes and failed puts inside the node-local object stores:
  // verify-before-ack turns them into failed write attempts, bounded
  // retry re-puts the same bytes, and R=2 covers a replica that never
  // recovers.  Decisions hold.
  const Fixture fx(48);
  auto config = make_config();
  const auto reference = cl::link_elastic(fx.clean, fx.error, config);
  config.storage_faults.seed = 21;
  config.storage_faults.put_fail_rate = 0.2;
  config.storage_faults.torn_write_rate = 0.1;
  const auto result = cl::link_elastic(fx.clean, fx.error, config);
  EXPECT_GT(result.retries, 0u) << "seed 21 should draw some storage faults";
  EXPECT_EQ(result.dropped_pairs, 0u);
  EXPECT_EQ(result.decision_fingerprint(), reference.decision_fingerprint());
}

TEST(Elastic, WriteQuorumFailuresAreReportedNotFatal) {
  // Every put fails: no replica ever acks, every partition misses
  // quorum, every query drops.  The run completes with full accounting.
  const Fixture fx(30);
  auto config = make_config();
  config.write_quorum = 2;
  config.storage_faults.put_fail_rate = 1.0;
  const auto result = cl::link_elastic(fx.clean, fx.error, config);
  EXPECT_EQ(result.write_quorum_failures, result.partitions.size());
  EXPECT_EQ(result.dropped_partitions, result.partitions.size());
  EXPECT_EQ(result.total_pairs, 0u);
  EXPECT_EQ(result.dropped_pairs,
            static_cast<std::uint64_t>(fx.clean.size()) * fx.error.size());
  EXPECT_EQ(result.write_acks, 0u);
}

TEST(Elastic, TransientNetFaultsKeepDecisions) {
  const Fixture fx(48);
  auto config = make_config();
  const auto reference = cl::link_elastic(fx.clean, fx.error, config);
  cl::ShardFaultPolicy policy;
  policy.faults.seed = 77;
  policy.faults.shard_fail_rate = 0.3;
  policy.retry.max_attempts = 6;
  policy.retry.full_jitter = true;  // desynchronized, still deterministic
  policy.retry.jitter_seed = 5;
  config.fault = policy;
  const auto result = cl::link_elastic(fx.clean, fx.error, config);
  EXPECT_GT(result.retries, 0u);
  EXPECT_EQ(result.dropped_pairs, 0u);
  EXPECT_EQ(result.decision_fingerprint(), reference.decision_fingerprint());
  const auto again = cl::link_elastic(fx.clean, fx.error, config);
  EXPECT_EQ(again.retries, result.retries) << "fault runs must replay exactly";
  EXPECT_DOUBLE_EQ(again.backoff_ms, result.backoff_ms);
}

TEST(Elastic, CountersAreInternallyConsistent) {
  const Fixture fx(48);
  const auto config = make_config();
  const auto result =
      cl::link_elastic(fx.clean, fx.error, config, kill_at(1, 1));
  std::uint64_t served = 0;
  double busiest = 0.0;
  for (const auto& c : result.replicas) {
    served += c.queries_served;
    busiest = std::max(busiest, c.busy_ms);
    EXPECT_GE(c.query_attempts, c.queries_served);
    EXPECT_GE(c.write_attempts, 1u);
  }
  std::size_t completed = 0;
  for (const auto& p : result.partitions) {
    completed += p.completed ? 1 : 0;
  }
  EXPECT_EQ(served, completed);
  EXPECT_DOUBLE_EQ(result.makespan_ms, busiest);
  EXPECT_EQ(result.partitions.size(),
            completed + result.dropped_partitions);
}

TEST(Elastic, NamesAreStable) {
  EXPECT_STREQ(cl::migration_step_name(cl::MigrationStep::kHandoff),
               "handoff");
  EXPECT_STREQ(cl::migration_step_name(cl::MigrationStep::kDeltaTraffic),
               "delta-traffic");
}

// --- the protocol codecs ------------------------------------------------

TEST(ClusterProtocol, RecordListRoundTrips) {
  u::Rng rng(3);
  const auto people = lk::generate_people(9, rng);
  const std::string blob = cl::encode_record_list(people);
  const auto decoded = cl::decode_record_list(blob);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded.value().size(), people.size());
  for (std::size_t i = 0; i < people.size(); ++i) {
    EXPECT_EQ(decoded.value()[i].id, people[i].id);
    EXPECT_EQ(decoded.value()[i].last_name, people[i].last_name);
  }
  EXPECT_FALSE(cl::decode_record_list(blob.substr(0, blob.size() - 3)).ok());
  EXPECT_FALSE(cl::decode_record_list(blob + "x").ok());
}

TEST(ClusterProtocol, PayloadsRoundTrip) {
  cl::ReplicaWrite w{42, 3, "blobbytes"};
  const auto w2 = cl::decode_replica_write(cl::encode_replica_write(w));
  ASSERT_TRUE(w2.ok());
  EXPECT_EQ(w2.value().pid, 42u);
  EXPECT_EQ(w2.value().delta_seq, 3u);
  EXPECT_EQ(w2.value().blob, "blobbytes");

  const auto q = cl::decode_replica_query(
      cl::encode_replica_query({0xDEADBEEFull}));
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().pid, 0xDEADBEEFull);

  cl::StateFetch f{7, cl::StateFetch::What::kDelta, 2};
  const auto f2 = cl::decode_state_fetch(cl::encode_state_fetch(f));
  ASSERT_TRUE(f2.ok());
  EXPECT_EQ(f2.value().pid, 7u);
  EXPECT_EQ(f2.value().what, cl::StateFetch::What::kDelta);
  EXPECT_EQ(f2.value().index, 2u);
}

// --- the same cluster over real sockets ---------------------------------

TEST(Elastic, TcpTransportProducesIdenticalDecisions) {
  const Fixture fx(40);
  auto config = make_config();
  const auto in_process = cl::link_elastic(fx.clean, fx.error, config);

  cl::ClusterService service(config.link, fx.error);
  net::ShardServer server(service.handler());
  net::TcpTransportOptions client_opts;
  client_opts.port = server.port();
  net::TcpTransport transport(client_opts);
  config.transport = &transport;
  const auto tcp = cl::link_elastic(fx.clean, fx.error, config);

  EXPECT_EQ(tcp.decision_fingerprint(), in_process.decision_fingerprint());
  EXPECT_EQ(tcp.total_matches, in_process.total_matches);
  EXPECT_EQ(tcp.total_pairs, in_process.total_pairs);
  EXPECT_EQ(tcp.dropped_pairs, 0u);
  EXPECT_EQ(tcp.write_acks, in_process.write_acks);
}

TEST(Elastic, TcpSurvivesKillAndRebalanceLikeInProcess) {
  // Scripted kills and live rebalance are driver-side (the NodeGate and
  // the migration executor), so the same schedule must hold over real
  // sockets too — including the state transfer running through TCP
  // state-fetch frames.
  const Fixture fx(40);
  auto config = make_config();
  const auto reference = cl::link_elastic(fx.clean, fx.error, config);

  cl::ElasticSchedule schedule;
  schedule.events.push_back(
      {cl::ElasticEvent::Kind::kAddNode, 3, 1, std::nullopt});
  schedule.events.push_back(
      {cl::ElasticEvent::Kind::kKillNode, 0, 2, std::nullopt});

  cl::ClusterService service(config.link, fx.error);
  net::ShardServer server(service.handler());
  net::TcpTransportOptions client_opts;
  client_opts.port = server.port();
  // Keep real-time backoff sleeps tiny: the kill forces real retries.
  net::TcpTransport transport(client_opts);
  config.transport = &transport;
  cl::ShardFaultPolicy policy;  // no injected faults, just small backoff
  policy.retry.backoff_base_ms = 0.25;
  config.fault = policy;
  const auto tcp = cl::link_elastic(fx.clean, fx.error, config, schedule);

  EXPECT_EQ(tcp.dropped_pairs, 0u);
  EXPECT_EQ(tcp.decision_fingerprint(), reference.decision_fingerprint());
  EXPECT_GT(tcp.migration.completed, 0u);
}

TEST(ClusterService, StateMovesAndDropsThroughTheProtocol) {
  // Drive the service handler directly: write a base + delta to one
  // node, fetch the chain from it, install it on another node verbatim,
  // and check the manifests agree byte-for-byte (the migration verify
  // step) before dropping the source copy.
  const Fixture fx(12);
  auto link = lk::LinkConfig{};
  link.comparator = lk::make_point_threshold_config(lk::FieldStrategy::kFpdl);
  cl::ClusterService service(link, fx.error);
  auto call = [&service](cl::NodeId node, net::FrameType type,
                         std::string payload) {
    net::FrameContext ctx;
    ctx.type = type;
    ctx.shard = node;
    ctx.attempt = 1;
    return service.handle(ctx, payload);
  };

  const std::uint64_t pid = 99;
  const std::span<const lk::PersonRecord> records(fx.clean);
  const std::string base = cl::encode_record_list(records.subspan(0, 8));
  const std::string delta = cl::encode_record_list(records.subspan(8));
  ASSERT_TRUE(call(0, net::FrameType::kReplicaWrite,
                   cl::encode_replica_write({pid, 0, base}))
                  .ok());
  ASSERT_TRUE(call(0, net::FrameType::kReplicaWrite,
                   cl::encode_replica_write({pid, 1, delta}))
                  .ok());
  EXPECT_TRUE(service.node_has_partition(0, pid));
  EXPECT_FALSE(service.node_has_partition(1, pid));

  // Deltas may not precede their base.
  EXPECT_FALSE(call(1, net::FrameType::kReplicaWrite,
                    cl::encode_replica_write({pid, 1, delta}))
                   .ok());
  // Nor skip one: delta 3 cannot follow a chain that holds delta 1.
  const auto gap = call(0, net::FrameType::kReplicaWrite,
                        cl::encode_replica_write({pid, 3, delta}));
  ASSERT_FALSE(gap.ok());
  EXPECT_EQ(gap.status().code(), u::StatusCode::kFailedPrecondition);
  // A resend of writes that already landed (a retry after a lost reply)
  // acks again and leaves the chain as it was.
  EXPECT_TRUE(call(0, net::FrameType::kReplicaWrite,
                   cl::encode_replica_write({pid, 1, delta}))
                  .ok());
  EXPECT_TRUE(call(0, net::FrameType::kReplicaWrite,
                   cl::encode_replica_write({pid, 0, base}))
                  .ok());
  // A different delta 1 does not follow either: it is not a resend.
  EXPECT_EQ(call(0, net::FrameType::kReplicaWrite,
                 cl::encode_replica_write({pid, 1, base}))
                .status()
                .code(),
            u::StatusCode::kFailedPrecondition);

  auto fetched_base = call(0, net::FrameType::kStateFetch,
                           cl::encode_state_fetch({pid, cl::StateFetch::What::kBase, 0}));
  auto fetched_delta = call(0, net::FrameType::kStateFetch,
                            cl::encode_state_fetch({pid, cl::StateFetch::What::kDelta, 1}));
  ASSERT_TRUE(fetched_base.ok());
  ASSERT_TRUE(fetched_delta.ok());
  EXPECT_EQ(fetched_base.value(), base);
  ASSERT_TRUE(call(1, net::FrameType::kReplicaWrite,
                   cl::encode_replica_write({pid, 0, fetched_base.value()}))
                  .ok());
  ASSERT_TRUE(call(1, net::FrameType::kReplicaWrite,
                   cl::encode_replica_write({pid, 1, fetched_delta.value()}))
                  .ok());

  auto m0 = call(0, net::FrameType::kStateFetch,
                 cl::encode_state_fetch({pid, cl::StateFetch::What::kManifest, 0}));
  auto m1 = call(1, net::FrameType::kStateFetch,
                 cl::encode_state_fetch({pid, cl::StateFetch::What::kManifest, 0}));
  ASSERT_TRUE(m0.ok());
  ASSERT_TRUE(m1.ok());
  EXPECT_EQ(m0.value(), m1.value()) << "replica chains must verify equal";

  // Both replicas answer the query identically.
  auto q0 = call(0, net::FrameType::kReplicaQuery,
                 cl::encode_replica_query({pid}));
  auto q1 = call(1, net::FrameType::kReplicaQuery,
                 cl::encode_replica_query({pid}));
  ASSERT_TRUE(q0.ok());
  ASSERT_TRUE(q1.ok());
  const auto r0 = lk::decode_shard_reply(q0.value());
  const auto r1 = lk::decode_shard_reply(q1.value());
  ASSERT_TRUE(r0.ok());
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r0.value().matches, r1.value().matches);
  EXPECT_EQ(r0.value().pairs, r1.value().pairs);
  EXPECT_EQ(r0.value().pairs, 12u * fx.error.size());

  // Drop the source copy; the dest still serves, the source 404s.
  ASSERT_TRUE(
      call(0, net::FrameType::kStateDrop, cl::encode_state_drop({pid})).ok());
  EXPECT_FALSE(service.node_has_partition(0, pid));
  EXPECT_TRUE(service.node_has_partition(1, pid));
  EXPECT_FALSE(
      call(0, net::FrameType::kReplicaQuery, cl::encode_replica_query({pid}))
          .ok());
  EXPECT_TRUE(
      call(1, net::FrameType::kReplicaQuery, cl::encode_replica_query({pid}))
          .ok());
}

}  // namespace
