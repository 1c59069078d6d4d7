// Static sharding properties.  A static cluster is the elastic driver
// with replication = 1, nodes {0..N-1}, one ring arc per node (so one
// partition per node, the classic "shard") and an empty schedule: every
// partition has exactly one home, a node that fails every attempt takes
// its partition with it, and the run reports the loss instead of dying.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <vector>

#include "cluster/elastic.hpp"
#include "cluster/ring.hpp"
#include "linkage/person_gen.hpp"
#include "util/retry.hpp"
#include "util/rng.hpp"

namespace {

namespace cl = fbf::cluster;
namespace lk = fbf::linkage;
using fbf::util::Rng;

struct Fixture {
  std::vector<lk::PersonRecord> clean;
  std::vector<lk::PersonRecord> error;

  explicit Fixture(std::size_t n, std::uint64_t seed = 5) {
    Rng rng(seed);
    clean = lk::generate_people(n, rng);
    lk::RecordErrorModel model;
    model.field_typo_rate = 0.25;
    error = lk::make_error_records(clean, model, rng);
  }
};

cl::ElasticConfig static_config(std::size_t nodes) {
  cl::ElasticConfig config;
  config.nodes.resize(nodes);
  std::iota(config.nodes.begin(), config.nodes.end(), cl::NodeId{0});
  config.replication = 1;
  config.ring.seed = 23;
  config.ring.vnodes_per_node = 1;
  config.link.comparator =
      lk::make_point_threshold_config(lk::FieldStrategy::kFpdl);
  return config;
}

/// Partition id -> home node, recomputed through an independent ring.
std::map<std::uint64_t, cl::NodeId> owners(const cl::ElasticConfig& config,
                                           const cl::ElasticResult& result) {
  cl::HashRing ring(config.ring);
  for (const cl::NodeId node : config.nodes) {
    EXPECT_TRUE(ring.add_node(node).ok());
  }
  std::map<std::uint64_t, cl::NodeId> out;
  for (const auto& p : result.partitions) {
    out[p.pid] = ring.owner(p.pid);
  }
  return out;
}

double dropped_pair_fraction(const cl::ElasticResult& r) {
  const double universe = static_cast<double>(r.total_pairs) +
                          static_cast<double>(r.dropped_pairs);
  return universe > 0.0 ? static_cast<double>(r.dropped_pairs) / universe
                        : 0.0;
}

TEST(Sharded, ReplicateRightIsLossless) {
  const Fixture fx(120);
  const auto baseline =
      lk::link_exhaustive(fx.clean, fx.error, static_config(1).link);
  for (const std::size_t nodes : {1u, 2u, 4u, 7u}) {
    const auto result =
        cl::link_elastic(fx.clean, fx.error, static_config(nodes));
    EXPECT_EQ(result.total_matches, baseline.matches) << nodes;
    EXPECT_EQ(result.total_true_positives, baseline.true_positives) << nodes;
    // Broadcast: total pair count equals the exhaustive product.
    EXPECT_EQ(result.total_pairs, baseline.candidate_pairs) << nodes;
    EXPECT_EQ(result.dropped_partitions, 0u) << nodes;
    EXPECT_EQ(result.retries, 0u) << nodes;
  }
}

TEST(Sharded, StatsAreInternallyConsistent) {
  const Fixture fx(100);
  const auto config = static_config(4);
  const auto result = cl::link_elastic(fx.clean, fx.error, config);
  const auto home = owners(config, result);
  std::uint64_t pairs = 0;
  std::uint64_t matches = 0;
  std::size_t records = 0;
  double sum_ms = 0.0;
  std::map<cl::NodeId, double> busy;
  for (const auto& p : result.partitions) {
    ASSERT_TRUE(p.completed);
    EXPECT_EQ(p.served_by, home.at(p.pid)) << "R=1: the owner serves";
    EXPECT_EQ(p.pairs, static_cast<std::uint64_t>(p.records) * fx.error.size());
    pairs += p.pairs;
    matches += p.matches;
    records += p.records;
    sum_ms += p.link_ms;
    busy[p.served_by] += p.link_ms;
  }
  EXPECT_EQ(records, fx.clean.size());
  EXPECT_EQ(result.total_pairs, pairs);
  EXPECT_EQ(result.total_matches, matches);
  EXPECT_DOUBLE_EQ(result.sum_ms, sum_ms);
  double max_ms = 0.0;
  for (const auto& replica : result.replicas) {
    EXPECT_DOUBLE_EQ(replica.busy_ms, busy[replica.node]);
    EXPECT_EQ(replica.write_attempts, replica.queries_served)
        << "one write and one query per partition, no retries";
    max_ms = std::max(max_ms, replica.busy_ms);
  }
  EXPECT_DOUBLE_EQ(result.makespan_ms, max_ms);
  // Work imbalance: makespan / mean per-node work; 1.0 = balanced.
  EXPECT_GE(result.makespan_ms * static_cast<double>(result.replicas.size()),
            result.sum_ms * (1.0 - 1e-9));
}

TEST(Sharded, SingleShardEqualsExhaustive) {
  const Fixture fx(80);
  const auto config = static_config(1);
  const auto sharded = cl::link_elastic(fx.clean, fx.error, config);
  const auto exhaustive = lk::link_exhaustive(fx.clean, fx.error, config.link);
  EXPECT_EQ(sharded.total_matches, exhaustive.matches);
  EXPECT_EQ(sharded.total_true_positives, exhaustive.true_positives);
  ASSERT_EQ(sharded.replicas.size(), 1u);
  EXPECT_EQ(sharded.replicas[0].node, 0u);
}

TEST(Sharded, FaultFreePolicyChangesNothing) {
  // An armed-but-all-zero fault policy must reproduce the fault-free run.
  const Fixture fx(100);
  const auto config = static_config(4);
  auto faulty = config;
  faulty.fault = cl::ShardFaultPolicy{};
  const auto plain = cl::link_elastic(fx.clean, fx.error, config);
  const auto armed = cl::link_elastic(fx.clean, fx.error, faulty);
  EXPECT_EQ(armed.decision_fingerprint(), plain.decision_fingerprint());
  EXPECT_EQ(armed.total_pairs, plain.total_pairs);
  EXPECT_EQ(armed.total_true_positives, plain.total_true_positives);
  EXPECT_EQ(armed.dropped_partitions, 0u);
  EXPECT_EQ(armed.retries, 0u);
  EXPECT_EQ(armed.dropped_pairs, 0u);
  EXPECT_DOUBLE_EQ(armed.backoff_ms, 0.0);
  for (const auto& replica : armed.replicas) {
    EXPECT_EQ(replica.write_failures, 0u);
    EXPECT_EQ(replica.query_attempts, replica.queries_served);
  }
}

TEST(Sharded, PermanentShardFailureDegradesGracefully) {
  // Acceptance scenario: one node fails every attempt.  The run must
  // complete, retries must be bounded and counted, and the result must
  // report the dropped partition instead of crashing.
  const Fixture fx(200);
  auto config = static_config(4);
  const auto baseline = cl::link_elastic(fx.clean, fx.error, config);
  cl::ShardFaultPolicy policy;
  policy.faults.fail_shard = 2;
  policy.retry.max_attempts = 3;
  config.fault = policy;

  const auto result = cl::link_elastic(fx.clean, fx.error, config);
  const auto home = owners(config, result);
  std::size_t on_node2 = 0;
  std::size_t records_on_node2 = 0;
  for (const auto& p : result.partitions) {
    EXPECT_EQ(p.completed, home.at(p.pid) != 2) << "pid " << p.pid;
    if (home.at(p.pid) == 2) {
      ++on_node2;
      records_on_node2 += p.records;
    }
  }
  ASSERT_EQ(on_node2, 1u) << "one arc per node";
  EXPECT_EQ(result.dropped_partitions, 1u);
  EXPECT_EQ(result.write_quorum_failures, 1u);
  EXPECT_EQ(result.dropped_records, records_on_node2);
  // Every bounded write attempt failed; with no holder, no query is sent
  // and no further backoff is waited.
  EXPECT_EQ(result.retries, 3u);
  EXPECT_DOUBLE_EQ(result.backoff_ms, policy.retry.total_delay_ms(2));
  for (const auto& replica : result.replicas) {
    if (replica.node == 2) {
      EXPECT_EQ(replica.write_attempts, 3u);
      EXPECT_EQ(replica.write_failures, 3u);
      EXPECT_EQ(replica.query_attempts, 0u);
    }
  }
  // The surviving partitions are untouched...
  EXPECT_EQ(result.total_pairs + result.dropped_pairs, baseline.total_pairs);
  EXPECT_EQ(result.dropped_pairs,
            static_cast<std::uint64_t>(records_on_node2) * fx.error.size());
  // ...and the recall impact is bounded and reported: with the right
  // list broadcast each left record has at most one true pair, so the
  // true positives lost cannot exceed the dropped left records.
  EXPECT_LE(baseline.total_true_positives - result.total_true_positives,
            result.dropped_records);
  EXPECT_GT(dropped_pair_fraction(result), 0.0);
  EXPECT_LT(dropped_pair_fraction(result), 1.0);
}

TEST(Sharded, TransientFailuresRetryWithBoundedBackoff) {
  const Fixture fx(150);
  auto config = static_config(8);
  const auto reference = cl::link_elastic(fx.clean, fx.error, config);
  cl::ShardFaultPolicy policy;
  policy.faults.seed = 1234;
  policy.faults.shard_fail_rate = 0.5;
  policy.retry.max_attempts = 8;  // transient faults at 0.5 almost always clear
  policy.retry.backoff_base_ms = 2.0;
  policy.retry.backoff_multiplier = 2.0;
  config.fault = policy;
  const auto result = cl::link_elastic(fx.clean, fx.error, config);
  EXPECT_GT(result.retries, 0u);  // seed 1234 draws some failures
  ASSERT_EQ(result.partitions.size(), result.replicas.size())
      << "one arc per node: one partition per node";

  // One partition per node makes each node's counters one write loop and
  // one query loop, so the geometric backoff can be replayed exactly: a
  // loop that succeeded after f failures waited total_delay_ms(f); an
  // exhausted loop waited after all but its last attempt, and a partition
  // whose write exhausted has no holder to query, so it waits no more.
  const int max_attempts = policy.retry.max_attempts;
  const double exhausted = policy.retry.total_delay_ms(max_attempts - 1);
  std::uint64_t counted_retries = 0;
  double expected_backoff = 0.0;
  for (const auto& replica : result.replicas) {
    ASSERT_LE(replica.write_attempts, static_cast<std::uint64_t>(max_attempts));
    ASSERT_LE(replica.query_attempts, static_cast<std::uint64_t>(max_attempts));
    counted_retries += replica.write_failures + replica.query_failures;
    const bool written = replica.write_failures < replica.write_attempts;
    expected_backoff +=
        written ? policy.retry.total_delay_ms(
                      static_cast<int>(replica.write_failures))
                : exhausted;
    if (written) {
      expected_backoff +=
          replica.queries_served == 1
              ? policy.retry.total_delay_ms(
                    static_cast<int>(replica.query_failures))
              : exhausted;
    }
  }
  EXPECT_EQ(result.retries, counted_retries);
  EXPECT_DOUBLE_EQ(result.backoff_ms, expected_backoff);
  // Retries change timing, never what a completed partition computes.
  for (std::size_t i = 0; i < result.partitions.size(); ++i) {
    const auto& p = result.partitions[i];
    ASSERT_EQ(p.pid, reference.partitions[i].pid);
    if (p.completed) {
      EXPECT_EQ(p.matches, reference.partitions[i].matches);
      EXPECT_EQ(p.true_positives, reference.partitions[i].true_positives);
    }
  }
}

TEST(Sharded, AllShardsFailingStillCompletes) {
  // Worst case: nothing survives.  The run must return (zero results,
  // full accounting) rather than crash or hang.
  const Fixture fx(60);
  auto config = static_config(3);
  cl::ShardFaultPolicy policy;
  policy.faults.shard_fail_rate = 1.0;
  policy.retry.max_attempts = 2;
  config.fault = policy;
  const auto result = cl::link_elastic(fx.clean, fx.error, config);
  ASSERT_EQ(result.partitions.size(), 3u);
  EXPECT_EQ(result.dropped_partitions, 3u);
  EXPECT_EQ(result.total_pairs, 0u);
  EXPECT_EQ(result.total_true_positives, 0u);
  EXPECT_EQ(result.dropped_records, fx.clean.size());
  EXPECT_DOUBLE_EQ(dropped_pair_fraction(result), 1.0);
  EXPECT_EQ(result.retries, 6u);  // 3 partitions x 2 bounded write attempts
}

TEST(RetryPolicy, FullJitterIsDeterministicAndBounded) {
  fbf::util::RetryPolicy policy;
  policy.backoff_base_ms = 4.0;
  policy.backoff_multiplier = 2.0;
  policy.full_jitter = true;
  policy.jitter_seed = 9;
  for (int attempt = 1; attempt <= 6; ++attempt) {
    for (const std::uint64_t key : {0ull, 1ull, 7ull, 123456789ull}) {
      const double d = policy.delay_ms(attempt, key);
      EXPECT_EQ(d, policy.delay_ms(attempt, key)) << "same draw must replay";
      EXPECT_GE(d, 0.0);
      EXPECT_LT(d, policy.next_delay_ms(attempt))
          << "jittered delay must stay under the nominal schedule";
    }
  }
  // Different keys desynchronize: shards retrying after a common failure
  // must not thunder back in lockstep.
  bool any_differ = false;
  for (std::uint64_t key = 1; key < 8 && !any_differ; ++key) {
    any_differ = policy.delay_ms(3, key) != policy.delay_ms(3, 0);
  }
  EXPECT_TRUE(any_differ);
  // Jitter off: delay_ms is exactly the legacy geometric schedule.
  policy.full_jitter = false;
  for (int attempt = 1; attempt <= 6; ++attempt) {
    EXPECT_DOUBLE_EQ(policy.delay_ms(attempt, 42),
                     policy.next_delay_ms(attempt));
  }
}

TEST(Sharded, JitteredBackoffKeepsDecisionsAndReplaysExactly) {
  // Turning jitter on changes *when* retries happen, never what they
  // compute — and the jittered schedule is still seeded, so a rerun
  // reproduces the same backoff to the bit.
  const Fixture fx(150);
  auto config = static_config(8);
  cl::ShardFaultPolicy policy;
  policy.faults.seed = 1234;
  policy.faults.shard_fail_rate = 0.5;
  policy.retry.max_attempts = 8;
  policy.retry.backoff_base_ms = 2.0;
  config.fault = policy;
  const auto plain = cl::link_elastic(fx.clean, fx.error, config);

  policy.retry.full_jitter = true;
  policy.retry.jitter_seed = 77;
  config.fault = policy;
  const auto jittered = cl::link_elastic(fx.clean, fx.error, config);
  EXPECT_EQ(jittered.decision_fingerprint(), plain.decision_fingerprint());
  EXPECT_EQ(jittered.total_matches, plain.total_matches);
  EXPECT_EQ(jittered.total_true_positives, plain.total_true_positives);
  EXPECT_EQ(jittered.retries, plain.retries);
  ASSERT_EQ(jittered.replicas.size(), plain.replicas.size());
  for (std::size_t i = 0; i < plain.replicas.size(); ++i) {
    EXPECT_EQ(jittered.replicas[i].write_attempts,
              plain.replicas[i].write_attempts);
    EXPECT_EQ(jittered.replicas[i].query_attempts,
              plain.replicas[i].query_attempts);
  }
  EXPECT_LT(jittered.backoff_ms, plain.backoff_ms)
      << "seed 1234 draws retries; jitter must shave some waiting";

  const auto replay = cl::link_elastic(fx.clean, fx.error, config);
  EXPECT_DOUBLE_EQ(replay.backoff_ms, jittered.backoff_ms);
  EXPECT_EQ(replay.retries, jittered.retries);
}

}  // namespace
