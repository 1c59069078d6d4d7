// Transport-layer tests: the shard reply codec, the in-process
// reference transport, the real TCP path (server event loop + frame
// protocol + deadlines), each injected fault kind manifesting as a real
// socket failure, and the headline property — the shard driver
// (cluster::link_elastic, here as a static R=1 cluster) produces identical
// counters over InProcessTransport and TcpTransport for the same fault
// seed.
#include "net/transport.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "cluster/elastic.hpp"
#include "cluster/service.hpp"
#include "linkage/person_gen.hpp"
#include "linkage/shard_service.hpp"
#include "net/tcp.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace {

namespace cl = fbf::cluster;
namespace lk = fbf::linkage;
namespace net = fbf::net;
namespace u = fbf::util;

net::ShardHandler echo_handler() {
  return [](const net::FrameContext&, std::string_view payload) {
    return u::Result<std::string>(std::string(payload));
  };
}

// --- shard reply codec ----------------------------------------------

TEST(ShardProtocol, ShardReplyRoundTrips) {
  lk::ShardReply reply;
  reply.pairs = 1234;
  reply.matches = 56;
  reply.true_positives = 55;
  reply.link_ms = 7.25;
  const auto decoded = lk::decode_shard_reply(lk::encode_shard_reply(reply));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().pairs, 1234u);
  EXPECT_EQ(decoded.value().matches, 56u);
  EXPECT_EQ(decoded.value().true_positives, 55u);
  EXPECT_DOUBLE_EQ(decoded.value().link_ms, 7.25);
  EXPECT_FALSE(lk::decode_shard_reply("short").ok());
}

// --- in-process transport ----------------------------------------------

TEST(InProcessTransport, RoutesPayloadAndContext) {
  net::FrameContext seen;
  net::InProcessTransport transport(
      [&seen](const net::FrameContext& ctx, std::string_view payload) {
        seen = ctx;
        return u::Result<std::string>(std::string(payload) + "!");
      });
  const auto reply =
      transport.call(3, 2, net::FrameType::kLinkRequest, "ping");
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value(), "ping!");
  EXPECT_EQ(seen.shard, 3u);
  EXPECT_EQ(seen.attempt, 2u);
  EXPECT_FALSE(transport.real_time());
}

TEST(InProcessTransport, InjectedFaultFailsTheAttempt) {
  u::FaultConfig faults;
  faults.fail_shard = 1;
  net::InProcessTransport transport(echo_handler(), faults);
  EXPECT_FALSE(transport.call(1, 1, net::FrameType::kLinkRequest, "x").ok());
  EXPECT_TRUE(transport.call(0, 1, net::FrameType::kLinkRequest, "x").ok());
}

// --- TCP transport ------------------------------------------------------

TEST(TcpTransport, PingPongAndEcho) {
  net::ShardServer server(echo_handler());
  net::TcpTransportOptions opts;
  opts.port = server.port();
  net::TcpTransport transport(opts);
  EXPECT_TRUE(transport.real_time());
  ASSERT_TRUE(transport.ping().ok());
  const auto reply =
      transport.call(4, 1, net::FrameType::kLinkRequest, "over the wire");
  ASSERT_TRUE(reply.ok()) << reply.status().to_string();
  EXPECT_EQ(reply.value(), "over the wire");
  EXPECT_GE(server.counters().requests_served.load(), 1u);
}

TEST(TcpTransport, ConcurrentStartStopNeverHangs) {
  // stop() must wake every worker, including one that has just evaluated
  // its wait predicate and is about to block; a lost wake-up leaves that
  // worker asleep and hangs stop()'s join forever (caught here by the
  // test timeout).  Many short-lived 8-worker servers on more threads
  // than cores make the window likely to be hit: without the fix, about
  // four runs in ten hang on a 4-core x86-64 machine.
  constexpr int kThreads = 8;
  constexpr int kCycles = 2000;
  net::ShardServerOptions options;
  options.workers = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&options] {
      for (int i = 0; i < kCycles; ++i) {
        net::ShardServer server(echo_handler(), options);
        server.stop();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
}

TEST(TcpTransport, HandlerErrorComesBackAsStatus) {
  net::ShardServer server(
      [](const net::FrameContext&, std::string_view) {
        return u::Result<std::string>(
            u::Status::invalid_argument("bad request shape"));
      });
  net::TcpTransportOptions opts;
  opts.port = server.port();
  net::TcpTransport transport(opts);
  const auto reply = transport.call(0, 1, net::FrameType::kLinkRequest, "x");
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), u::StatusCode::kInvalidArgument);
  EXPECT_NE(reply.status().message().find("bad request shape"),
            std::string::npos);
}

TEST(TcpTransport, ConnectToDeadPortIsRefused) {
  // No server at all: transport pointed at a bound-but-not-listening
  // port must observe a real ECONNREFUSED, quickly.
  net::ShardServer server(echo_handler());
  net::TcpTransportOptions opts;
  opts.port = server.port();
  u::FaultConfig faults;
  faults.fail_shard = 0;  // shard 0 fails every attempt
  faults.seed = 902;
  opts.faults = faults;
  net::TcpTransport transport(opts);
  // Find an attempt whose kind draw is kConnectRefused and call it.
  const u::FaultInjector probe(faults);
  int attempt = -1;
  for (int a = 1; a <= 64; ++a) {
    if (probe.net_fault_kind(0, a) == u::NetFaultKind::kConnectRefused) {
      attempt = a;
      break;
    }
  }
  ASSERT_GT(attempt, 0) << "no refused-kind draw in 64 attempts";
  const auto reply =
      transport.call(0, attempt, net::FrameType::kLinkRequest, "x");
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(transport.stats().connect_refused, 1u)
      << reply.status().to_string();
}

// Each server-side fault kind must manifest as its distinct real failure.
TEST(TcpTransport, EachServerFaultKindManifests) {
  u::FaultConfig faults;
  faults.fail_shard = 0;
  faults.seed = 31;
  const u::FaultInjector probe(faults);
  int disconnect_attempt = -1;
  int garble_attempt = -1;
  int delay_attempt = -1;
  for (int a = 1; a <= 128; ++a) {
    const auto kind = probe.net_fault_kind(0, a);
    if (kind == u::NetFaultKind::kMidFrameDisconnect &&
        disconnect_attempt < 0) {
      disconnect_attempt = a;
    } else if (kind == u::NetFaultKind::kGarbledFrame && garble_attempt < 0) {
      garble_attempt = a;
    } else if (kind == u::NetFaultKind::kDeadlineExpiry && delay_attempt < 0) {
      delay_attempt = a;
    }
  }
  ASSERT_GT(disconnect_attempt, 0);
  ASSERT_GT(garble_attempt, 0);
  ASSERT_GT(delay_attempt, 0);

  net::ShardServerOptions server_opts;
  server_opts.faults = faults;
  server_opts.injected_delay_ms = 400.0;
  net::ShardServer server(echo_handler(), server_opts);
  net::TcpTransportOptions opts;
  opts.port = server.port();
  opts.faults = faults;
  opts.deadline_ms = 150.0;  // < injected_delay_ms so the stall expires it
  net::TcpTransport transport(opts);

  const auto cut = transport.call(0, disconnect_attempt,
                                  net::FrameType::kLinkRequest, "payload");
  ASSERT_FALSE(cut.ok());
  EXPECT_EQ(transport.stats().disconnects, 1u) << cut.status().to_string();
  EXPECT_GE(server.counters().injected_disconnects.load(), 1u);

  const auto garbled = transport.call(0, garble_attempt,
                                      net::FrameType::kLinkRequest, "payload");
  ASSERT_FALSE(garbled.ok());
  EXPECT_EQ(transport.stats().garbled, 1u) << garbled.status().to_string();
  EXPECT_GE(server.counters().injected_garbles.load(), 1u);

  const auto late = transport.call(0, delay_attempt,
                                   net::FrameType::kLinkRequest, "payload");
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(transport.stats().deadline_expired, 1u)
      << late.status().to_string();
  EXPECT_GE(server.counters().injected_delays.load(), 1u);
}

// --- per-kind delivery stats --------------------------------------------

TEST(TransportStats, InProcessTalliesEachInjectedKind) {
  u::FaultConfig faults;
  faults.fail_shard = 0;
  faults.seed = 31;
  net::InProcessTransport transport(echo_handler(), faults);
  // Drive enough attempts that the kind draw covers all four; the stats
  // must agree with an independent replay of the same pure draws.
  const u::FaultInjector probe(faults);
  net::TransportStats expected;
  const int kAttempts = 64;
  for (int a = 1; a <= kAttempts; ++a) {
    ASSERT_FALSE(transport.call(0, a, net::FrameType::kLinkRequest, "x").ok());
    ++expected.by_kind(probe.net_fault_kind(0, a));
  }
  EXPECT_EQ(transport.stats().calls, static_cast<std::uint64_t>(kAttempts));
  EXPECT_EQ(transport.stats().ok, 0u);
  EXPECT_EQ(transport.stats().connect_refused, expected.connect_refused);
  EXPECT_EQ(transport.stats().disconnects, expected.disconnects);
  EXPECT_EQ(transport.stats().deadline_expired, expected.deadline_expired);
  EXPECT_EQ(transport.stats().garbled, expected.garbled);
  EXPECT_GT(expected.connect_refused, 0u);
  EXPECT_GT(expected.disconnects, 0u);
  EXPECT_GT(expected.deadline_expired, 0u);
  EXPECT_GT(expected.garbled, 0u);
  EXPECT_EQ(transport.stats().total_failures(),
            static_cast<std::uint64_t>(kAttempts));
  // Successful calls land in ok, not in any failure bucket.
  ASSERT_TRUE(transport.call(1, 1, net::FrameType::kLinkRequest, "x").ok());
  EXPECT_EQ(transport.stats().ok, 1u);
}

TEST(TransportStats, ByKindAndFailuresAgree) {
  net::TransportStats stats;
  ++stats.by_kind(u::NetFaultKind::kGarbledFrame);
  ++stats.by_kind(u::NetFaultKind::kGarbledFrame);
  ++stats.by_kind(u::NetFaultKind::kDeadlineExpiry);
  EXPECT_EQ(stats.failures(u::NetFaultKind::kGarbledFrame), 2u);
  EXPECT_EQ(stats.failures(u::NetFaultKind::kDeadlineExpiry), 1u);
  EXPECT_EQ(stats.failures(u::NetFaultKind::kConnectRefused), 0u);
  EXPECT_EQ(stats.total_failures(), 3u);
}

TEST(TransportStats, TcpClassifiesObservedFailuresLikeTheDraw) {
  // The TCP client does not see the injector's kind draw — it sees a
  // refused connect, a cut socket, a stall, a bad checksum — yet its
  // per-kind stats must match the draws, because each kind manifests
  // as its distinct real failure.
  u::FaultConfig faults;
  faults.fail_shard = 0;
  faults.seed = 31;
  net::ShardServerOptions server_opts;
  server_opts.faults = faults;
  server_opts.injected_delay_ms = 400.0;
  net::ShardServer server(echo_handler(), server_opts);
  net::TcpTransportOptions opts;
  opts.port = server.port();
  opts.faults = faults;
  opts.deadline_ms = 150.0;
  net::TcpTransport transport(opts);

  const u::FaultInjector probe(faults);
  net::TransportStats expected;
  const int kAttempts = 12;
  for (int a = 1; a <= kAttempts; ++a) {
    ASSERT_FALSE(transport.call(0, a, net::FrameType::kLinkRequest, "x").ok());
    ++expected.by_kind(probe.net_fault_kind(0, a));
  }
  EXPECT_EQ(transport.stats().connect_refused, expected.connect_refused);
  EXPECT_EQ(transport.stats().disconnects, expected.disconnects);
  EXPECT_EQ(transport.stats().deadline_expired, expected.deadline_expired);
  EXPECT_EQ(transport.stats().garbled, expected.garbled);
  EXPECT_EQ(transport.stats().other_errors, 0u);
  EXPECT_EQ(transport.stats().total_failures(),
            static_cast<std::uint64_t>(kAttempts));
}

// --- the headline property: transport equivalence -----------------------

struct EquivalenceCase {
  const char* name;
  u::FaultConfig faults;
  bool with_fault_policy;
};

void expect_transport_equivalence(const EquivalenceCase& c) {
  u::Rng rng(77);
  const auto left = lk::generate_people(60, rng);
  const auto right = lk::make_error_records(left, {}, rng);

  // A static cluster: four nodes, one replica per partition, no events.
  cl::ElasticConfig config;
  config.nodes = {0, 1, 2, 3};
  config.replication = 1;
  config.ring.seed = 7;
  config.ring.vnodes_per_node = 4;
  config.link.comparator =
      lk::make_point_threshold_config(lk::FieldStrategy::kFpdl);
  if (c.with_fault_policy) {
    cl::ShardFaultPolicy policy;
    policy.faults = c.faults;
    policy.retry.max_attempts = 3;
    policy.retry.backoff_base_ms = 0.25;  // real sleeps on TCP: keep tiny
    config.fault = policy;
  }

  // Reference run: driver-owned in-process transport.
  const auto in_process = cl::link_elastic(left, right, config);

  // Socket run: same seed, real frames, real failures.
  cl::ClusterService service(config.link, right);
  net::ShardServerOptions server_opts;
  server_opts.faults = c.faults;
  server_opts.injected_delay_ms = 300.0;
  net::ShardServer server(service.handler(), server_opts);
  net::TcpTransportOptions client_opts;
  client_opts.port = server.port();
  client_opts.faults = c.faults;
  client_opts.deadline_ms = 120.0;
  net::TcpTransport transport(client_opts);
  config.transport = &transport;
  const auto tcp = cl::link_elastic(left, right, config);

  EXPECT_EQ(tcp.decision_fingerprint(), in_process.decision_fingerprint())
      << c.name;
  EXPECT_EQ(tcp.total_pairs, in_process.total_pairs) << c.name;
  EXPECT_EQ(tcp.total_matches, in_process.total_matches) << c.name;
  EXPECT_EQ(tcp.total_true_positives, in_process.total_true_positives)
      << c.name;
  EXPECT_EQ(tcp.retries, in_process.retries) << c.name;
  EXPECT_EQ(tcp.write_acks, in_process.write_acks) << c.name;
  EXPECT_EQ(tcp.dropped_partitions, in_process.dropped_partitions) << c.name;
  EXPECT_EQ(tcp.dropped_pairs, in_process.dropped_pairs) << c.name;
  EXPECT_DOUBLE_EQ(tcp.backoff_ms, in_process.backoff_ms) << c.name;
  ASSERT_EQ(tcp.replicas.size(), in_process.replicas.size()) << c.name;
  for (std::size_t i = 0; i < tcp.replicas.size(); ++i) {
    const auto& a = tcp.replicas[i];
    const auto& b = in_process.replicas[i];
    EXPECT_EQ(a.node, b.node) << c.name;
    EXPECT_EQ(a.write_attempts, b.write_attempts) << c.name << " node " << a.node;
    EXPECT_EQ(a.write_failures, b.write_failures) << c.name << " node " << a.node;
    EXPECT_EQ(a.query_attempts, b.query_attempts) << c.name << " node " << a.node;
    EXPECT_EQ(a.query_failures, b.query_failures) << c.name << " node " << a.node;
    EXPECT_EQ(a.queries_served, b.queries_served) << c.name << " node " << a.node;
  }
}

TEST(TransportEquivalence, FaultFree) {
  expect_transport_equivalence({"fault-free", {}, false});
}

TEST(TransportEquivalence, TransientFaults) {
  EquivalenceCase c{"transient", {}, true};
  c.faults.seed = 404;
  c.faults.shard_fail_rate = 0.4;  // all four kinds get drawn across runs
  expect_transport_equivalence(c);
}

TEST(TransportEquivalence, PermanentShardFailure) {
  EquivalenceCase c{"dead node", {}, true};
  c.faults.seed = 405;
  c.faults.fail_shard = 2;
  expect_transport_equivalence(c);
}

}  // namespace
