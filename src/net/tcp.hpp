// Real loopback sockets for the shard driver: a shard server hosting N
// logical shard workers behind one event loop, and a TcpTransport client
// that speaks the frame protocol with per-request deadlines.
//
// The server accepts on 127.0.0.1:<ephemeral> and keeps each connection
// open across requests.  An epoll loop reads non-blocking sockets; every
// connection is registered EPOLLONESHOT, so one event hands the fd to
// exactly one owner.  The loop reads until a request frame is whole, then
// hands it to a small worker pool (the "logical shard workers"), which
// runs the handler, writes the reply and re-arms the fd with
// epoll_ctl(MOD) — the loop is not woken for that.  One request is in
// flight per connection; there is no pipelining.
//
// The client keeps one connection per TcpTransport and reuses it for
// every call.  Any failed call closes it (deadline, garbled or cut frame,
// send error), so a stalled reply can never answer a later call.  When a
// reused connection closes before any reply byte arrives, the call is
// resent once on a fresh connection: the server only closes a connection
// without replying when it never ran the request (an idle eviction, a
// partial frame closed at a limit, or a job left unserved at stop()).
//
// The server's resources are bounded by named constants: at most
// kMaxServerConnections open connections (an accept past the cap closes
// the longest-idle one), a partial-frame deadline against slow peers, and
// a budget on bytes buffered across partial frames.
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
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/transport.hpp"
#include "util/fault.hpp"
#include "util/retry.hpp"
#include "util/status.hpp"

namespace fbf::net {

/// Open connections one ShardServer keeps.  An accept past the cap closes
/// the longest-idle connection; when none is idle, the newcomer gets a
/// kOverloaded frame and is closed.
inline constexpr std::size_t kMaxServerConnections = 256;
/// A request frame must arrive whole within this long of its first byte;
/// a slower peer is closed.  Loopback delivers a maximum frame in far
/// less.
inline constexpr double kPartialFrameDeadlineMs = 1000.0;
/// The event loop's epoll_wait timeout.  Partial-frame deadlines are
/// checked once per slice.
inline constexpr int kServerSliceMs = 100;
/// Bytes one server buffers across all partial frames.  Two maximum
/// frames fit, so one legitimate frame always does; past the budget the
/// connection holding the largest partial frame is closed.
inline constexpr std::size_t kMaxServerBufferedBytes =
    2 * (std::size_t{kMaxFramePayloadBytes} + kFrameHeaderBytes +
         kMaxFrameExtensionBytes);

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
  std::atomic<std::uint64_t> connections{0};  ///< open right now
  std::atomic<std::uint64_t> evicted{0};      ///< closed by the connection cap
  std::atomic<std::uint64_t> slow_peers{0};   ///< past kPartialFrameDeadlineMs
  std::atomic<std::uint64_t> over_budget{0};  ///< past kMaxServerBufferedBytes
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
  /// One open connection.  `buffer` and `partial_since_ms` belong to the
  /// event loop; `dispatched` and `idle_since_ms` change under conns_mu_.
  /// While `dispatched` is set, a worker owns the fd and the loop neither
  /// reads nor closes it.
  struct Connection {
    std::string buffer;
    double partial_since_ms = 0.0;  ///< first byte of the pending frame
    double idle_since_ms = 0.0;     ///< accept, or the last re-arm
    bool dispatched = false;
  };
  struct Job {
    int fd = -1;
    Connection* conn = nullptr;
    FrameContext ctx;
    std::string payload;
    bool close_after = false;  ///< the peer pipelined: close after replying
  };

  void event_loop();
  void accept_all();
  void read_connection(int fd, std::vector<char>& chunk);
  void close_connection(int fd);
  [[nodiscard]] bool evict_idle();
  void close_slow_peers(double now);
  void enforce_budget();
  void worker_loop();
  void serve(const Job& job);
  /// Worker side: hand the fd back to the loop (re-arm), or shut it down
  /// first so the loop reads EOF and closes it.
  void release(const Job& job, bool keep);

  ShardHandler handler_;
  ShardServerOptions options_;
  std::optional<fbf::util::FaultInjector> injector_;  ///< worker-side, mutex-guarded
  std::mutex injector_mu_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd that interrupts epoll_wait at stop()
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::mutex conns_mu_;
  std::unordered_map<int, std::unique_ptr<Connection>> conns_;
  std::size_t buffered_bytes_ = 0;  ///< loop-owned sum of partial buffers
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;
  ShardServerCounters counters_;
  std::thread loop_thread_;
  std::vector<std::thread> workers_;
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

/// Keeps one connection to options.port and reuses it for every call.
/// One calling thread per transport: calls are never concurrent, so a
/// connection never carries two outstanding requests.
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
      const FrameContext& ctx, std::string_view request, bool refused_draw);
  void drop_connection();

  TcpTransportOptions options_;
  std::optional<fbf::util::FaultInjector> injector_;
  int conn_fd_ = -1;  ///< the kept connection to options_.port, or -1
  int dead_fd_ = -1;  ///< bound, never listened: connecting here is refused
  std::uint16_t dead_port_ = 0;
  TransportStats stats_;
};

}  // namespace fbf::net
