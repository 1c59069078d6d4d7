// Transport-layer tests: the shard reply codec, the in-process
// reference transport, the real TCP path (server event loop + frame
// protocol + deadlines), each injected fault kind manifesting as a real
// socket failure, the kept client connection and the server's resource
// bounds, and the headline property — the shard driver
// (cluster::link_elastic, here as a static R=1 cluster) produces identical
// counters over InProcessTransport and TcpTransport for the same fault
// seed.
#include "net/transport.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "cluster/elastic.hpp"
#include "cluster/service.hpp"
#include "linkage/person_gen.hpp"
#include "linkage/shard_service.hpp"
#include "net/tcp.hpp"
#include "telemetry/telemetry.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/wire.hpp"

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

// --- kept connections and server bounds -------------------------------

double elapsed_ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

/// Blocking loopback connect that sends nothing: a raw, idle peer.
int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Reads until EOF (or a 5 s receive timeout); `eof` says which ended it.
std::string read_to_eof(int fd, bool& eof) {
  timeval timeout = {5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  std::string bytes;
  char chunk[4096];
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      eof = n == 0;
      return bytes;
    }
    bytes.append(chunk, static_cast<std::size_t>(n));
  }
}

/// Polls `done` every millisecond for up to five seconds.
template <typename Pred>
bool wait_for(Pred done) {
  const auto start = std::chrono::steady_clock::now();
  while (!done()) {
    if (elapsed_ms(start) > 5000.0) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

std::uint64_t connects() {
  return fbf::telemetry::Registry::global().counter("net.connects").value();
}

/// The first attempt on shard 0 whose kind draw is `kind`.
int attempt_of_kind(const u::FaultConfig& faults, u::NetFaultKind kind) {
  const u::FaultInjector probe(faults);
  for (int a = 1; a <= 128; ++a) {
    if (probe.net_fault_kind(0, a) == kind) {
      return a;
    }
  }
  return -1;
}

TEST(TcpConnection, ReusesOneConnection) {
  if (!fbf::telemetry::enabled()) {
    GTEST_SKIP() << "net.connects needs telemetry compiled in";
  }
  net::ShardServer server(echo_handler());
  net::TcpTransportOptions opts;
  opts.port = server.port();
  net::TcpTransport transport(opts);
  const std::uint64_t before = connects();
  for (int i = 0; i < 200; ++i) {
    const std::string payload = "call " + std::to_string(i);
    const auto reply = transport.call(static_cast<std::size_t>(i % 4), 1,
                                      net::FrameType::kLinkRequest, payload);
    ASSERT_TRUE(reply.ok()) << reply.status().to_string();
    ASSERT_EQ(reply.value(), payload);
  }
  EXPECT_EQ(connects() - before, 1u);
  EXPECT_EQ(server.counters().connections.load(), 1u);
  EXPECT_EQ(transport.stats().ok, 200u);
}

TEST(TcpConnection, LateReplyNeverAnswersTheNextCall) {
  // The stalled reply to the first call lands while the second call is
  // still waiting.  Were the connection kept after the deadline, the
  // second call would read "first"; the echo proves each reply is its own.
  u::FaultConfig faults;
  faults.fail_shard = 0;
  faults.seed = 31;
  const int delay_attempt =
      attempt_of_kind(faults, u::NetFaultKind::kDeadlineExpiry);
  ASSERT_GT(delay_attempt, 0);
  net::ShardServerOptions server_opts;
  server_opts.faults = faults;
  server_opts.injected_delay_ms = 300.0;
  net::ShardServer server(echo_handler(), server_opts);
  net::TcpTransportOptions opts;
  opts.port = server.port();
  opts.faults = faults;
  opts.deadline_ms = 200.0;
  net::TcpTransport transport(opts);

  const auto late = transport.call(0, delay_attempt,
                                   net::FrameType::kLinkRequest, "first");
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(transport.stats().deadline_expired, 1u)
      << late.status().to_string();
  const auto second =
      transport.call(1, 1, net::FrameType::kLinkRequest, "second");
  ASSERT_TRUE(second.ok()) << second.status().to_string();
  EXPECT_EQ(second.value(), "second");
  const auto third = transport.call(1, 1, net::FrameType::kLinkRequest, "third");
  ASSERT_TRUE(third.ok()) << third.status().to_string();
  EXPECT_EQ(third.value(), "third");
  EXPECT_EQ(transport.stats().total_failures(), 1u);
}

TEST(TcpConnection, EvictedIdleConnectionIsResentTransparently) {
  net::ShardServer server(echo_handler());
  net::TcpTransportOptions opts;
  opts.port = server.port();
  net::TcpTransport transport(opts);
  ASSERT_TRUE(transport.call(0, 1, net::FrameType::kLinkRequest, "before").ok());

  // Fill the server to its cap.  The transport's connection is the
  // longest idle, so the accept past the cap evicts it.
  std::vector<int> peers;
  for (std::size_t i = 0; i < net::kMaxServerConnections; ++i) {
    peers.push_back(raw_connect(server.port()));
    ASSERT_GE(peers.back(), 0);
  }
  ASSERT_TRUE(wait_for([&] { return server.counters().evicted.load() >= 1; }));

  const std::uint64_t before = connects();
  const auto reply = transport.call(0, 1, net::FrameType::kLinkRequest, "after");
  ASSERT_TRUE(reply.ok()) << reply.status().to_string();
  EXPECT_EQ(reply.value(), "after");
  EXPECT_EQ(transport.stats().ok, 2u);
  EXPECT_EQ(transport.stats().total_failures(), 0u);
  if (fbf::telemetry::enabled()) {
    EXPECT_EQ(connects() - before, 1u);  // the one fresh connection
  }
  EXPECT_LE(server.counters().connections.load(), net::kMaxServerConnections);
  for (const int fd : peers) {
    ::close(fd);
  }
}

TEST(TcpConnection, RefusedDrawKeepsTheCachedConnection) {
  if (!fbf::telemetry::enabled()) {
    GTEST_SKIP() << "net.connects needs telemetry compiled in";
  }
  u::FaultConfig faults;
  faults.fail_shard = 0;
  faults.seed = 902;
  const int refused_attempt =
      attempt_of_kind(faults, u::NetFaultKind::kConnectRefused);
  ASSERT_GT(refused_attempt, 0);
  net::ShardServerOptions server_opts;
  server_opts.faults = faults;
  net::ShardServer server(echo_handler(), server_opts);
  net::TcpTransportOptions opts;
  opts.port = server.port();
  opts.faults = faults;
  net::TcpTransport transport(opts);

  const std::uint64_t before = connects();
  ASSERT_TRUE(transport.call(1, 1, net::FrameType::kLinkRequest, "a").ok());
  EXPECT_FALSE(transport
                   .call(0, refused_attempt, net::FrameType::kLinkRequest, "b")
                   .ok());
  EXPECT_EQ(transport.stats().connect_refused, 1u);
  const auto reply = transport.call(1, 1, net::FrameType::kLinkRequest, "c");
  ASSERT_TRUE(reply.ok()) << reply.status().to_string();
  EXPECT_EQ(reply.value(), "c");
  EXPECT_EQ(connects() - before, 1u);
  EXPECT_EQ(server.counters().connections.load(), 1u);
}

TEST(TcpConnection, FloodBeyondTheCapStaysBounded) {
  net::ShardServer server(echo_handler());
  constexpr std::size_t kExtra = 16;
  std::vector<int> peers;
  std::atomic<bool> flooding{true};
  std::thread flood([&] {
    for (std::size_t i = 0; i < net::kMaxServerConnections + kExtra; ++i) {
      peers.push_back(raw_connect(server.port()));
    }
    flooding.store(false);
  });
  std::uint64_t most_open = 0;
  while (flooding.load()) {
    most_open = std::max(most_open, server.counters().connections.load());
    std::this_thread::yield();
  }
  flood.join();
  for (const int fd : peers) {
    ASSERT_GE(fd, 0);
  }
  ASSERT_TRUE(
      wait_for([&] { return server.counters().evicted.load() >= kExtra; }));
  EXPECT_EQ(server.counters().evicted.load(), kExtra);
  EXPECT_LE(most_open, net::kMaxServerConnections);
  EXPECT_EQ(server.counters().connections.load(), net::kMaxServerConnections);

  net::TcpTransportOptions opts;
  opts.port = server.port();
  net::TcpTransport transport(opts);
  const auto reply = transport.call(2, 1, net::FrameType::kLinkRequest, "still here");
  ASSERT_TRUE(reply.ok()) << reply.status().to_string();
  EXPECT_EQ(reply.value(), "still here");
  EXPECT_EQ(transport.stats().total_failures(), 0u);
  EXPECT_LE(server.counters().connections.load(), net::kMaxServerConnections);
  for (const int fd : peers) {
    ::close(fd);
  }
}

TEST(TcpConnection, SlowLorisIsClosed) {
  net::ShardServer server(echo_handler());
  const int fd = raw_connect(server.port());
  ASSERT_GE(fd, 0);
  const std::string frame = net::encode_frame({net::FrameType::kPing, 0, 1}, {});
  const auto start = std::chrono::steady_clock::now();
  ASSERT_EQ(::send(fd, frame.data(), net::kFrameHeaderBytes / 2, 0),
            static_cast<ssize_t>(net::kFrameHeaderBytes / 2));
  bool eof = false;
  const std::string reply = read_to_eof(fd, eof);
  const double waited = elapsed_ms(start);
  ::close(fd);
  EXPECT_TRUE(eof);
  EXPECT_TRUE(reply.empty());
  EXPECT_GE(waited, net::kPartialFrameDeadlineMs);
  // Deadlines are checked once per slice; one more slice absorbs the
  // scheduling of a loaded host.
  EXPECT_LT(waited, net::kPartialFrameDeadlineMs + 2 * net::kServerSliceMs);
  EXPECT_TRUE(
      wait_for([&] { return server.counters().slow_peers.load() == 1; }));
  EXPECT_EQ(server.counters().connections.load(), 0u);
}

TEST(TcpConnection, OversizeLengthIsRejected) {
  namespace w = fbf::util::wire;
  net::ShardServer server(echo_handler());
  const int fd = raw_connect(server.port());
  ASSERT_GE(fd, 0);
  // A well-formed header whose length claims one byte past the cap, and
  // no payload.  The reply arrives although the server has received only
  // the header: the length is rejected before any buffer is sized by it.
  std::string header;
  w::put<std::uint32_t>(header, net::kFrameMagic);
  w::put<std::uint16_t>(header,
                        static_cast<std::uint16_t>(net::FrameType::kLinkRequest));
  w::put<std::uint16_t>(header, 0);
  w::put<std::uint32_t>(header, 0);
  w::put<std::uint32_t>(header, 1);
  w::put<std::uint32_t>(header, net::kMaxFramePayloadBytes + 1);
  w::put<std::uint64_t>(header, 0);
  ASSERT_EQ(header.size(), net::kFrameHeaderBytes);
  ASSERT_EQ(::send(fd, header.data(), header.size(), 0),
            static_cast<ssize_t>(header.size()));
  bool eof = false;
  const std::string bytes = read_to_eof(fd, eof);
  ::close(fd);
  EXPECT_TRUE(eof);
  const net::DecodedFrame reply = net::try_decode_frame(bytes);
  ASSERT_EQ(reply.status, net::DecodeStatus::kFrame);
  EXPECT_EQ(reply.ctx.type, net::FrameType::kError);
  EXPECT_EQ(reply.consumed, bytes.size());
  EXPECT_EQ(server.counters().corrupt_requests.load(), 1u);
  EXPECT_TRUE(
      wait_for([&] { return server.counters().connections.load() == 0; }));
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
