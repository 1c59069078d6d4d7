// Real loopback sockets for the shard driver: a shard server hosting N
// logical shard workers behind one event loop, and a TcpTransport client
// that speaks the frame protocol with per-request deadlines.
//
// The server accepts on 127.0.0.1:<ephemeral>, reads request frames with
// non-blocking I/O in a poll() event loop, and hands complete requests to
// a small worker pool (the "logical shard workers") that runs the handler
// and writes the reply.  One request per connection: the client connects,
// sends, awaits the reply, closes — connection setup is where injected
// refusals live, so per-call connects keep every failure mode reachable.
//
// Fault injection (util::FaultInjector) plugs in at the socket layer:
// when the shared failure decision says (shard, attempt) fails, the kind
// draw picks a real manifestation — the client connects to a dead port
// (real ECONNREFUSED), or the server cuts the reply mid-frame, stalls
// past the client's deadline, or flips a payload byte so the checksum
// rejects the frame.  The driver's retry/backoff loop upstream sees only
// Status values, exactly as it does for in-process faults.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/transport.hpp"
#include "util/fault.hpp"
#include "util/retry.hpp"
#include "util/status.hpp"

namespace fbf::net {

struct ShardServerOptions {
  /// Socket-layer fault injection; default-off config injects nothing.
  fbf::util::FaultConfig faults;
  /// How long a kDeadlineExpiry fault stalls the reply.  Must exceed the
  /// client's deadline_ms for the fault to actually manifest.
  double injected_delay_ms = 750.0;
  /// Logical shard workers draining decoded requests.
  std::size_t workers = 2;
};

/// What the server observed (for reports and test assertions).
struct ShardServerCounters {
  std::atomic<std::uint64_t> requests_served{0};
  std::atomic<std::uint64_t> corrupt_requests{0};
  std::atomic<std::uint64_t> injected_disconnects{0};
  std::atomic<std::uint64_t> injected_delays{0};
  std::atomic<std::uint64_t> injected_garbles{0};
};

class ShardServer {
 public:
  /// Binds 127.0.0.1:0 (ephemeral port), starts the event loop and the
  /// worker pool.  The listening socket is live when the constructor
  /// returns — a client may connect immediately.
  ShardServer(ShardHandler handler, ShardServerOptions options = {});
  ~ShardServer();

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] const ShardServerCounters& counters() const noexcept {
    return counters_;
  }

  /// Stops accepting, drains the workers, closes every socket.  Idempotent.
  void stop();

 private:
  struct Connection {
    int fd = -1;
    std::string buffer;
  };
  struct Job {
    int fd = -1;
    FrameContext ctx;
    std::string payload;
  };

  void event_loop();
  void worker_loop();
  void serve(const Job& job);

  ShardHandler handler_;
  ShardServerOptions options_;
  std::optional<fbf::util::FaultInjector> injector_;  ///< worker-side, mutex-guarded
  std::mutex injector_mu_;

  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  ///< self-pipe to interrupt poll()
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::thread loop_thread_;
  std::vector<std::thread> workers_;
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;
  ShardServerCounters counters_;
};

struct TcpTransportOptions {
  std::uint16_t port = 0;      ///< ShardServer::port()
  double deadline_ms = 2000.0;  ///< per-request budget: connect+send+reply
  /// Connect-establishment retries for *real* transient failures (listen
  /// backlog overflow, EINTR).  Injected refusals bypass this so the
  /// driver-level retry accounting matches the in-process transport.
  fbf::util::RetryPolicy connect_retry{/*max_attempts=*/3,
                                       /*backoff_base_ms=*/0.5,
                                       /*backoff_multiplier=*/2.0};
  /// Client-side fault injection (the connect-refused kind); must share
  /// the server's seed so both sides draw identical failure decisions.
  fbf::util::FaultConfig faults;
};

/// Client-side tallies by observed failure mode (the shared per-kind
/// breakdown; see net::TransportStats).
using TcpTransportStats = TransportStats;

class TcpTransport final : public ShardTransport {
 public:
  explicit TcpTransport(TcpTransportOptions options);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  [[nodiscard]] fbf::util::Result<std::string> call(
      std::size_t shard, int attempt, FrameType type,
      std::string_view request) override;

  [[nodiscard]] const char* name() const noexcept override { return "tcp"; }
  [[nodiscard]] bool real_time() const noexcept override { return true; }

  /// Round-trips an empty kPing frame (liveness / smoke tests).
  [[nodiscard]] fbf::util::Status ping();

  [[nodiscard]] const TransportStats& stats() const noexcept override {
    return stats_;
  }

 private:
  [[nodiscard]] fbf::util::Result<std::string> call_once(
      const FrameContext& ctx, std::string_view request,
      std::uint16_t port, double deadline_ms);

  TcpTransportOptions options_;
  std::optional<fbf::util::FaultInjector> injector_;
  int dead_fd_ = -1;  ///< bound, never listened: connecting here is refused
  std::uint16_t dead_port_ = 0;
  TransportStats stats_;
};

}  // namespace fbf::net
