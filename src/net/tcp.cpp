#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "util/wire.hpp"

namespace fbf::net {

namespace u = fbf::util;
namespace w = fbf::util::wire;

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_ms(double ms) {
  if (ms > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
  }
}

/// Absolute per-request budget; every blocking step polls against it.
struct Deadline {
  double end;
  explicit Deadline(double budget_ms) : end(now_ms() + budget_ms) {}
  [[nodiscard]] double remaining() const { return end - now_ms(); }
  [[nodiscard]] bool expired() const { return remaining() <= 0.0; }
  /// Poll timeout: bounded slices so loops can re-check state.
  [[nodiscard]] int slice() const {
    const double r = remaining();
    if (r <= 0.0) {
      return 0;
    }
    return static_cast<int>(std::min(r, 50.0)) + 1;
  }
};

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

std::string errno_text(int err) { return std::strerror(err); }

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

/// Non-blocking connect to 127.0.0.1:port, bounded by the deadline.
u::Result<int> connect_loopback(std::uint16_t port, const Deadline& deadline) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return u::Status::io_error("socket(): " + errno_text(errno));
  }
  if (!set_nonblocking(fd)) {
    ::close(fd);
    return u::Status::io_error("fcntl(O_NONBLOCK): " + errno_text(errno));
  }
  // Requests and replies are single small writes on a kept connection:
  // never hold one back waiting for an ACK.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const sockaddr_in addr = loopback_addr(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) ==
      0) {
    return fd;
  }
  if (errno != EINPROGRESS) {
    const int err = errno;
    ::close(fd);
    return u::Status::unavailable("connect(): " + errno_text(err));
  }
  // Await writability, then read the final verdict from SO_ERROR.
  while (true) {
    if (deadline.expired()) {
      ::close(fd);
      return u::Status::unavailable("connect(): deadline expired");
    }
    pollfd pfd = {fd, POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, deadline.slice());
    if (ready < 0 && errno != EINTR) {
      const int err = errno;
      ::close(fd);
      return u::Status::io_error("poll(): " + errno_text(err));
    }
    if (ready > 0) {
      break;
    }
  }
  int sock_err = 0;
  socklen_t len = sizeof(sock_err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &sock_err, &len) != 0 ||
      sock_err != 0) {
    ::close(fd);
    return u::Status::unavailable("connect(): " +
                                  errno_text(sock_err != 0 ? sock_err : errno));
  }
  return fd;
}

/// Writes all of `bytes` (non-blocking fd), bounded by the deadline.
/// `send_errno`, when given, receives the errno of a failed send().
u::Status send_all(int fd, std::string_view bytes, const Deadline& deadline,
                   int* send_errno = nullptr) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      const int err = errno;
      if (send_errno != nullptr) {
        *send_errno = err;
      }
      return u::Status::unavailable("send(): " + errno_text(err));
    }
    if (deadline.expired()) {
      return u::Status::unavailable("send(): deadline expired");
    }
    pollfd pfd = {fd, POLLOUT, 0};
    (void)::poll(&pfd, 1, deadline.slice());
  }
  return {};
}

// --- error-frame payload: u8 status code + message ---------------------

std::string encode_error_payload(const u::Status& status) {
  std::string payload;
  w::put<std::uint8_t>(payload, static_cast<std::uint8_t>(status.code()));
  w::put_string(payload, status.message());
  return payload;
}

u::Status decode_error_payload(std::string_view payload) {
  w::Reader r{payload};
  std::uint8_t code = 0;
  std::string message;
  if (!r.get(code) || !r.get_string(message) ||
      code > static_cast<std::uint8_t>(u::StatusCode::kResourceExhausted) ||
      code == 0) {
    return u::Status::data_loss("malformed error frame");
  }
  return {static_cast<u::StatusCode>(code), std::move(message)};
}

// --- ShardServer helpers ----------------------------------------------

/// Bytes one recv() asks for, and the most one readiness event reads
/// before the loop moves on (the rest re-fires the level-triggered fd).
constexpr std::size_t kRecvChunkBytes = 64 * 1024;
constexpr std::size_t kMaxReadPerEvent = 16 * kRecvChunkBytes;

/// Registry handles for the server's resource bounds (DESIGN.md §16).
struct ServerTelemetry {
  fbf::telemetry::Counter& requests;
  fbf::telemetry::Counter& evicted;
  fbf::telemetry::Counter& slow_peers;
  fbf::telemetry::Counter& over_budget;
  fbf::telemetry::Gauge& connections;
};

ServerTelemetry& server_telemetry() {
  auto& registry = fbf::telemetry::Registry::global();
  static ServerTelemetry cached{registry.counter("net.server.requests"),
                                registry.counter("net.server.evicted"),
                                registry.counter("net.server.slow_peers"),
                                registry.counter("net.server.over_budget"),
                                registry.gauge("net.server.connections")};
  return cached;
}

/// Open connections across every ShardServer in the process; the gauge is
/// set from it, so a registry reset is corrected by the next change.
std::atomic<std::int64_t> g_open_connections{0};

void count_connection(ShardServerCounters& counters, bool opened) {
  std::int64_t open = 0;
  if (opened) {
    counters.connections.fetch_add(1);
    open = ++g_open_connections;
  } else {
    counters.connections.fetch_sub(1);
    open = --g_open_connections;
  }
  if (fbf::telemetry::enabled()) {
    server_telemetry().connections.set(open);
  }
}

void bump(std::atomic<std::uint64_t>& local, fbf::telemetry::Counter& global) {
  local.fetch_add(1);
  if (fbf::telemetry::enabled()) {
    global.increment();
  }
}

bool arm(int epoll_fd, int op, int fd) {
  epoll_event event = {};
  event.events = EPOLLIN | EPOLLONESHOT;
  event.data.fd = fd;
  return ::epoll_ctl(epoll_fd, op, fd, &event) == 0;
}

/// Best effort: a kError or kOverloaded frame the peer may read before
/// the server closes the socket.
void send_status_frame(int fd, FrameType type, const u::Status& status) {
  const std::string frame =
      encode_frame({type, 0, 1}, encode_error_payload(status));
  (void)send_all(fd, frame, Deadline(100.0));
}

}  // namespace

// --- ShardServer -------------------------------------------------------

ShardServer::ShardServer(ShardHandler handler, ShardServerOptions options)
    : handler_(std::move(handler)), options_(options) {
  injector_.emplace(options_.faults);
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("ShardServer: socket(): " + errno_text(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = loopback_addr(0);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, SOMAXCONN) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    throw std::runtime_error("ShardServer: bind/listen: " + errno_text(err));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  epoll_event event = {};
  event.events = EPOLLIN;  // level-triggered: both stay loop-owned
  event.data.fd = listen_fd_;
  const bool listen_ok =
      epoll_fd_ >= 0 &&
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &event) == 0;
  event.data.fd = wake_fd_;
  if (!listen_ok || wake_fd_ < 0 ||
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &event) != 0) {
    const int err = errno;
    for (const int fd : {listen_fd_, epoll_fd_, wake_fd_}) {
      if (fd >= 0) {
        ::close(fd);
      }
    }
    throw std::runtime_error("ShardServer: epoll: " + errno_text(err));
  }
  running_.store(true);
  loop_thread_ = std::thread([this] { event_loop(); });
  const std::size_t workers = std::max<std::size_t>(1, options_.workers);
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ShardServer::~ShardServer() { stop(); }

void ShardServer::stop() {
  // running_ is part of the workers' wait predicate, so it changes under
  // queue_mu_: a worker that has just seen running_ == true is then
  // either blocked on queue_cv_ (and gets the notify below) or still
  // holds the lock (and sees false).  Clearing it without the lock let
  // the notify land between a worker's check and its wait, and join()
  // below hung.
  bool was_running = false;
  {
    const std::lock_guard<std::mutex> lock(queue_mu_);
    was_running = running_.exchange(false);
  }
  if (!was_running) {
    return;
  }
  // Interrupt epoll_wait, then wake every worker so they observe shutdown.
  const std::uint64_t one = 1;
  (void)!::write(wake_fd_, &one, sizeof(one));
  queue_cv_.notify_all();
  if (loop_thread_.joinable()) {
    loop_thread_.join();
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
  queue_.clear();
  for (const auto& [fd, conn] : conns_) {
    ::close(fd);
    count_connection(counters_, /*opened=*/false);
  }
  conns_.clear();
  buffered_bytes_ = 0;
  ::close(listen_fd_);
  ::close(epoll_fd_);
  ::close(wake_fd_);
}

void ShardServer::event_loop() {
  std::array<epoll_event, 64> events{};
  std::vector<char> chunk(kRecvChunkBytes);  // the loop's receive buffer
  double last_sweep = now_ms();
  while (running_.load()) {
    const int ready = ::epoll_wait(epoll_fd_, events.data(),
                                   static_cast<int>(events.size()),
                                   kServerSliceMs);
    if (!running_.load()) {
      break;
    }
    for (int i = 0; i < ready; ++i) {
      const int fd = events[static_cast<std::size_t>(i)].data.fd;
      if (fd == listen_fd_) {
        accept_all();
      } else if (fd != wake_fd_) {
        read_connection(fd, chunk);
      }
    }
    const double now = now_ms();
    if (now - last_sweep >= kServerSliceMs) {
      last_sweep = now;
      close_slow_peers(now);
    }
  }
}

void ShardServer::accept_all() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;  // EAGAIN, or out of descriptors until something closes
    }
    const std::lock_guard<std::mutex> lock(conns_mu_);
    if (conns_.size() >= kMaxServerConnections && !evict_idle()) {
      // Every open connection is busy: fail the newcomer fast.
      bump(counters_.evicted, server_telemetry().evicted);
      send_status_frame(fd, FrameType::kOverloaded,
                        u::Status::resource_exhausted(
                            "shard server connection cap reached"));
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // A fresh state per accept: a reused fd number never inherits the
    // bytes of the connection that held it before.
    auto conn = std::make_unique<Connection>();
    conn->idle_since_ms = now_ms();
    conns_[fd] = std::move(conn);
    count_connection(counters_, /*opened=*/true);
    if (!arm(epoll_fd_, EPOLL_CTL_ADD, fd)) {
      close_connection(fd);
    }
  }
}

// Caller holds conns_mu_.  Closes the longest-idle connection: one no
// worker owns, with no buffered bytes and nothing unread in the socket.
bool ShardServer::evict_idle() {
  int victim = -1;
  double oldest = 0.0;
  for (const auto& [fd, conn] : conns_) {
    if (conn->dispatched || !conn->buffer.empty() ||
        (victim >= 0 && conn->idle_since_ms >= oldest)) {
      continue;
    }
    int unread = 0;
    if (::ioctl(fd, FIONREAD, &unread) != 0 || unread != 0) {
      continue;
    }
    victim = fd;
    oldest = conn->idle_since_ms;
  }
  if (victim < 0) {
    return false;
  }
  close_connection(victim);
  bump(counters_.evicted, server_telemetry().evicted);
  return true;
}

// Caller holds conns_mu_ (or the loop and workers have stopped).
void ShardServer::close_connection(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) {
    return;
  }
  buffered_bytes_ -= it->second->buffer.size();
  conns_.erase(it);
  ::close(fd);
  count_connection(counters_, /*opened=*/false);
}

void ShardServer::read_connection(int fd, std::vector<char>& chunk) {
  const std::lock_guard<std::mutex> lock(conns_mu_);
  const auto it = conns_.find(fd);
  if (it == conns_.end() || it->second->dispatched) {
    return;  // a stale event for an fd closed earlier in this batch
  }
  Connection& conn = *it->second;
  bool eof = false;
  std::size_t read = 0;
  while (read < kMaxReadPerEvent) {
    const ssize_t n = ::recv(fd, chunk.data(), chunk.size(), 0);
    if (n > 0) {
      if (conn.buffer.empty()) {
        conn.partial_since_ms = now_ms();
      }
      conn.buffer.append(chunk.data(), static_cast<std::size_t>(n));
      buffered_bytes_ += static_cast<std::size_t>(n);
      read += static_cast<std::size_t>(n);
      if (static_cast<std::size_t>(n) < chunk.size()) {
        break;  // drained for now; more re-fires the armed fd
      }
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    }
    eof = true;  // EOF, or a receive error: either way the peer is gone
    break;
  }
  const DecodedFrame frame = try_decode_frame(conn.buffer);
  if (frame.status == DecodeStatus::kCorrupt) {
    counters_.corrupt_requests.fetch_add(1);
    send_status_frame(fd, FrameType::kError,
                      u::Status::data_loss(frame.error));
    close_connection(fd);
    return;
  }
  if (frame.status == DecodeStatus::kFrame) {
    Job job;
    job.fd = fd;
    job.conn = &conn;
    job.ctx = frame.ctx;
    job.payload.assign(frame.payload);
    // Bytes past the frame mean the peer pipelined, which the protocol
    // does not do: answer the first request, then close.
    job.close_after = frame.consumed < conn.buffer.size();
    buffered_bytes_ -= conn.buffer.size();
    conn.buffer.clear();
    if (conn.buffer.capacity() > kRecvChunkBytes) {
      std::string().swap(conn.buffer);  // a large frame's memory goes back
    }
    conn.dispatched = true;
    {
      std::lock_guard<std::mutex> queue_lock(queue_mu_);
      queue_.push_back(std::move(job));
    }
    queue_cv_.notify_one();
    return;
  }
  if (eof) {
    close_connection(fd);  // gone before a complete frame
    return;
  }
  if (buffered_bytes_ > kMaxServerBufferedBytes) {
    enforce_budget();
    if (conns_.find(fd) == conns_.end()) {
      return;
    }
  }
  if (!arm(epoll_fd_, EPOLL_CTL_MOD, fd)) {
    close_connection(fd);
  }
}

// Caller holds conns_mu_.  Closes the largest partial frames until the
// buffered bytes fit the budget again.
void ShardServer::enforce_budget() {
  while (buffered_bytes_ > kMaxServerBufferedBytes) {
    int largest = -1;
    std::size_t size = 0;
    for (const auto& [fd, conn] : conns_) {
      if (!conn->dispatched && conn->buffer.size() > size) {
        largest = fd;
        size = conn->buffer.size();
      }
    }
    if (largest < 0) {
      return;
    }
    close_connection(largest);
    bump(counters_.over_budget, server_telemetry().over_budget);
  }
}

void ShardServer::close_slow_peers(double now) {
  const std::lock_guard<std::mutex> lock(conns_mu_);
  std::vector<int> slow;
  for (const auto& [fd, conn] : conns_) {
    if (!conn->dispatched && !conn->buffer.empty() &&
        now - conn->partial_since_ms > kPartialFrameDeadlineMs) {
      slow.push_back(fd);
    }
  }
  for (const int fd : slow) {
    close_connection(fd);
    bump(counters_.slow_peers, server_telemetry().slow_peers);
  }
}

void ShardServer::worker_loop() {
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [this] { return !running_.load() || !queue_.empty(); });
      if (!running_.load() && queue_.empty()) {
        return;
      }
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    serve(job);
  }
}

void ShardServer::release(const Job& job, bool keep) {
  if (!keep || job.close_after) {
    ::shutdown(job.fd, SHUT_RDWR);  // the loop reads EOF and closes it
  }
  // Clearing `dispatched` and re-arming happen under one lock, so the
  // loop never sees an idle connection whose re-arm is still to come.
  const std::lock_guard<std::mutex> lock(conns_mu_);
  job.conn->dispatched = false;
  job.conn->idle_since_ms = now_ms();
  (void)arm(epoll_fd_, EPOLL_CTL_MOD, job.fd);
}

void ShardServer::serve(const Job& job) {
  const Deadline write_deadline(2000.0);
  const auto reply = [&](const std::string& frame) {
    release(job, send_all(job.fd, frame, write_deadline).ok());
  };
  if (job.ctx.type == FrameType::kPing) {
    FrameContext pong = job.ctx;
    pong.type = FrameType::kPong;
    pong.trace = 0;  // replies carry no extension
    reply(encode_frame(pong, {}));
    return;
  }
  // Socket-layer fault injection: the *decision* is the shared keyed draw
  // (identical to the in-process transport's), the *manifestation* is a
  // real frame-layer failure.
  bool fail = false;
  u::NetFaultKind kind = u::NetFaultKind::kConnectRefused;
  {
    std::lock_guard<std::mutex> lock(injector_mu_);
    fail = injector_->would_fail(job.ctx.shard,
                                 static_cast<int>(job.ctx.attempt));
    if (fail) {
      kind = injector_->net_fault_kind(job.ctx.shard,
                                       static_cast<int>(job.ctx.attempt));
    }
  }
  if (fail && kind == u::NetFaultKind::kDeadlineExpiry) {
    // Stall past the client's deadline, then answer into the void.  The
    // client closed the connection when its deadline expired, so the
    // late write fails or is discarded and never answers another call.
    counters_.injected_delays.fetch_add(1);
    sleep_ms(options_.injected_delay_ms);
  }
  const u::Result<std::string> result = handler_(job.ctx, job.payload);
  FrameContext reply_ctx = job.ctx;
  reply_ctx.trace = 0;  // replies carry no extension; the request id did
  std::string frame;
  if (result.ok()) {
    reply_ctx.type = reply_frame_type(job.ctx.type);
    frame = encode_frame(reply_ctx, result.value());
    counters_.requests_served.fetch_add(1);
    if (fbf::telemetry::enabled()) {
      server_telemetry().requests.increment();
    }
  } else {
    // Overload is a distinct frame type so clients can tell "retry later"
    // from "this request is broken" without parsing the payload.
    reply_ctx.type =
        result.status().code() == u::StatusCode::kResourceExhausted
            ? FrameType::kOverloaded
            : FrameType::kError;
    frame = encode_frame(reply_ctx, encode_error_payload(result.status()));
  }
  if (fail && kind == u::NetFaultKind::kMidFrameDisconnect) {
    // A real mid-frame cut: ship half the frame, then shut the socket.
    counters_.injected_disconnects.fetch_add(1);
    const std::string_view half(frame.data(), frame.size() / 2);
    (void)send_all(job.fd, half, write_deadline);
    release(job, /*keep=*/false);
    return;
  }
  if (fail && kind == u::NetFaultKind::kGarbledFrame) {
    // Flip one payload byte; the client's checksum must reject the frame.
    counters_.injected_garbles.fetch_add(1);
    if (frame.size() > kFrameHeaderBytes) {
      const std::size_t span = frame.size() - kFrameHeaderBytes;
      const std::size_t offset =
          kFrameHeaderBytes +
          static_cast<std::size_t>(
              (static_cast<std::uint64_t>(job.ctx.shard) * 1000003ull +
               job.ctx.attempt) %
              span);
      frame[offset] = static_cast<char>(
          static_cast<unsigned char>(frame[offset]) ^ 0x40u);
    }
  }
  reply(frame);
}

// --- TcpTransport ------------------------------------------------------

TcpTransport::TcpTransport(TcpTransportOptions options)
    : options_(options) {
  injector_.emplace(options_.faults);
  // Reserve a loopback port with no listener: connecting to it produces a
  // genuine ECONNREFUSED, which is how injected refusals manifest.
  dead_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (dead_fd_ >= 0) {
    sockaddr_in addr = loopback_addr(0);
    if (::bind(dead_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) == 0) {
      socklen_t len = sizeof(addr);
      ::getsockname(dead_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
      dead_port_ = ntohs(addr.sin_port);
    }
  }
}

TcpTransport::~TcpTransport() {
  drop_connection();
  if (dead_fd_ >= 0) {
    ::close(dead_fd_);
  }
}

void TcpTransport::drop_connection() {
  if (conn_fd_ >= 0) {
    ::close(conn_fd_);
    conn_fd_ = -1;
  }
}

namespace {

/// Connects, retrying only genuine transient failures (backlog overflow)
/// under the shared RetryPolicy.  Injected refusals target a dead port,
/// so they burn these attempts instantly and still fail — the driver's
/// per-attempt accounting stays transport-independent.
u::Result<int> connect_with_retry(std::uint16_t port,
                                  const u::RetryPolicy& retry,
                                  const Deadline& deadline) {
  u::Status last = u::Status::unavailable("connect(): no attempt made");
  for (int attempt = 1; attempt <= retry.bounded_attempts(); ++attempt) {
    u::Result<int> conn = connect_loopback(port, deadline);
    if (conn.ok()) {
      return conn;
    }
    last = conn.status();
    if (deadline.expired() || attempt == retry.bounded_attempts()) {
      break;
    }
    sleep_ms(retry.next_delay_ms(attempt));
  }
  return last;
}

/// How one request/reply exchange on a connection ended.
struct Exchange {
  u::Result<std::string> reply = u::Status::unavailable("no exchange");
  bool reusable = false;    ///< one whole reply frame and nothing after it
  bool unanswered = false;  ///< the peer closed before any reply byte
};

Exchange exchange(int fd, std::string_view frame, const Deadline& deadline) {
  Exchange out;
  int send_errno = 0;
  if (u::Status sent = send_all(fd, frame, deadline, &send_errno);
      !sent.ok()) {
    out.reply = sent;
    out.unanswered = send_errno == EPIPE || send_errno == ECONNRESET;
    return out;
  }
  std::string buffer;
  char chunk[4096];
  while (true) {
    const DecodedFrame reply = try_decode_frame(buffer);
    if (reply.status == DecodeStatus::kCorrupt) {
      out.reply = u::Status::data_loss(std::string("garbled frame: ") +
                                       reply.error);
      return out;
    }
    if (reply.status == DecodeStatus::kFrame) {
      out.reusable = reply.consumed == buffer.size();
      if (reply.ctx.type == FrameType::kError ||
          reply.ctx.type == FrameType::kOverloaded) {
        out.reply = decode_error_payload(reply.payload);
      } else {
        out.reply = std::string(reply.payload);
      }
      return out;
    }
    if (deadline.expired()) {
      out.reply = u::Status::unavailable("deadline expired awaiting reply");
      return out;
    }
    pollfd pfd = {fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, deadline.slice());
    if (ready <= 0) {
      continue;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buffer.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      out.unanswered = buffer.empty();
      out.reply = u::Status::unavailable(
          buffer.empty() ? "connection closed before reply"
                         : "connection closed mid-frame");
      return out;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      continue;
    }
    const int err = errno;
    out.unanswered = buffer.empty() && err == ECONNRESET;
    out.reply = u::Status::io_error("recv(): " + errno_text(err));
    return out;
  }
}

}  // namespace

u::Result<std::string> TcpTransport::call_once(const FrameContext& ctx,
                                               std::string_view request,
                                               bool refused_draw) {
  const Deadline deadline(options_.deadline_ms);
  const std::string frame = encode_frame(ctx, request);
  if (refused_draw) {
    // A fresh connect to the dead port is a real ECONNREFUSED; the kept
    // connection stays as it is.
    u::Result<int> fd =
        connect_with_retry(dead_port_, options_.connect_retry, deadline);
    if (!fd.ok()) {
      return fd.status();
    }
    Exchange done = exchange(fd.value(), frame, deadline);
    ::close(fd.value());
    return std::move(done.reply);
  }
  // A kept connection the server closed while it sat idle fails before
  // any reply byte.  The server never ran that request, so it is resent
  // once on a fresh connection.
  for (int round = 1;; ++round) {
    const bool reused = conn_fd_ >= 0;
    if (!reused) {
      u::Result<int> fd =
          connect_with_retry(options_.port, options_.connect_retry, deadline);
      if (!fd.ok()) {
        return fd.status();
      }
      conn_fd_ = fd.value();
      if (fbf::telemetry::enabled()) {
        detail::net_telemetry().connects.increment();
      }
    }
    Exchange done = exchange(conn_fd_, frame, deadline);
    if (!done.reusable) {
      drop_connection();  // a late or partial reply must never be read
    }
    if (reused && done.unanswered && round == 1) {
      continue;
    }
    return std::move(done.reply);
  }
}

u::Result<std::string> TcpTransport::call(std::size_t shard, int attempt,
                                          FrameType type,
                                          std::string_view request) {
  ++stats_.calls;
  if (fbf::telemetry::enabled()) {
    detail::net_telemetry().calls.increment();
  }
  FrameContext ctx;
  ctx.type = type;
  ctx.shard = static_cast<std::uint32_t>(shard);
  ctx.attempt = attempt > 0 ? static_cast<std::uint32_t>(attempt) : 1u;
  if (fbf::telemetry::trace_enabled()) {
    // Same derivation as the in-process transport: the id crosses the
    // wire in the frame extension, so the handler sees an identical
    // FrameContext over both backends.
    ctx.trace = fbf::telemetry::derive_trace_id(
        static_cast<std::uint16_t>(type), request);
  }
  const int attempt_key = static_cast<int>(ctx.attempt);
  // Nobody listens on the dead port: a refused draw is a real ECONNREFUSED.
  const bool refused_draw =
      dead_port_ != 0 && injector_->shard_attempt_fails(shard, attempt_key) &&
      injector_->net_fault_kind(shard, attempt_key) ==
          u::NetFaultKind::kConnectRefused;
  u::Result<std::string> result = call_once(ctx, request, refused_draw);
  if (result.ok()) {
    ++stats_.ok;
    if (fbf::telemetry::enabled()) {
      detail::net_telemetry().ok.increment();
    }
    detail::record_call_span(ctx.trace, shard, attempt, /*ok=*/true);
    return result;
  }
  const u::Status status = result.status();
  const std::string& message = status.message();
  auto& nt = detail::net_telemetry();
  const bool mirror = fbf::telemetry::enabled();
  if (message.find("Connection refused") != std::string::npos) {
    ++stats_.connect_refused;
    if (mirror) nt.connect_refused.increment();
  } else if (message.find("deadline expired") != std::string::npos) {
    ++stats_.deadline_expired;
    if (mirror) nt.deadline.increment();
  } else if (message.find("closed") != std::string::npos) {
    ++stats_.disconnects;
    if (mirror) nt.disconnects.increment();
  } else if (message.find("garbled") != std::string::npos) {
    ++stats_.garbled;
    if (mirror) nt.garbled.increment();
  } else {
    ++stats_.other_errors;
    if (mirror) nt.other.increment();
  }
  detail::record_call_span(ctx.trace, shard, attempt, /*ok=*/false);
  return result;
}

u::Status TcpTransport::ping() {
  return call(0, 1, FrameType::kPing, {}).status();
}

}  // namespace fbf::net
