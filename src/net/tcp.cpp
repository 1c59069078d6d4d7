#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

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
u::Status send_all(int fd, std::string_view bytes, const Deadline& deadline) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return u::Status::unavailable("send(): " + errno_text(errno));
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

}  // namespace

// --- ShardServer -------------------------------------------------------

ShardServer::ShardServer(ShardHandler handler, ShardServerOptions options)
    : handler_(std::move(handler)), options_(options) {
  injector_.emplace(options_.faults);
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("ShardServer: socket(): " + errno_text(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = loopback_addr(0);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    throw std::runtime_error("ShardServer: bind/listen: " + errno_text(err));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  set_nonblocking(listen_fd_);
  if (::pipe(wake_fds_) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("ShardServer: pipe(): " + errno_text(errno));
  }
  set_nonblocking(wake_fds_[0]);
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
  // Interrupt poll(), then wake every worker so they observe shutdown.
  (void)!::write(wake_fds_[1], "x", 1);
  queue_cv_.notify_all();
  if (loop_thread_.joinable()) {
    loop_thread_.join();
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
  ::close(listen_fd_);
  ::close(wake_fds_[0]);
  ::close(wake_fds_[1]);
  // Unserved jobs own their sockets.
  std::lock_guard<std::mutex> lock(queue_mu_);
  for (const Job& job : queue_) {
    ::close(job.fd);
  }
  queue_.clear();
}

void ShardServer::event_loop() {
  std::vector<Connection> conns;
  std::vector<pollfd> pfds;
  const auto close_conn = [&conns](std::size_t i) {
    ::close(conns[i].fd);
    conns.erase(conns.begin() + static_cast<std::ptrdiff_t>(i));
  };
  while (running_.load()) {
    pfds.clear();
    pfds.push_back({listen_fd_, POLLIN, 0});
    pfds.push_back({wake_fds_[0], POLLIN, 0});
    for (const Connection& conn : conns) {
      pfds.push_back({conn.fd, POLLIN, 0});
    }
    const int ready = ::poll(pfds.data(), pfds.size(), 100);
    if (!running_.load()) {
      break;
    }
    if (ready <= 0) {
      continue;
    }
    if ((pfds[1].revents & POLLIN) != 0) {
      char drain[16];
      while (::read(wake_fds_[0], drain, sizeof(drain)) > 0) {
      }
    }
    // Connections accepted below have no pollfd entry yet; only the
    // first `polled` entries of conns are mirrored in pfds this round.
    const std::size_t polled = conns.size();
    if ((pfds[0].revents & POLLIN) != 0) {
      while (true) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
          break;
        }
        set_nonblocking(fd);
        conns.push_back({fd, {}});
      }
    }
    // Walk backwards (pfds[2+i] is conns[i]): dispatch or close removes
    // the connection without disturbing lower indices, and the freshly
    // accepted tail (>= polled) is left for the next poll round.
    for (std::size_t i = polled; i-- > 0;) {
      if ((pfds[2 + i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      bool closed = false;
      char chunk[4096];
      while (true) {
        const ssize_t n = ::recv(conns[i].fd, chunk, sizeof(chunk), 0);
        if (n > 0) {
          conns[i].buffer.append(chunk, static_cast<std::size_t>(n));
          continue;
        }
        if (n == 0) {
          closed = true;
        }
        break;  // EAGAIN or error or EOF
      }
      const DecodedFrame frame = try_decode_frame(conns[i].buffer);
      if (frame.status == DecodeStatus::kCorrupt) {
        counters_.corrupt_requests.fetch_add(1);
        const std::string reply = encode_frame(
            {FrameType::kError, 0, 1},
            encode_error_payload(u::Status::data_loss(frame.error)));
        const Deadline deadline(100.0);
        (void)send_all(conns[i].fd, reply, deadline);
        close_conn(i);
        continue;
      }
      if (frame.status == DecodeStatus::kFrame) {
        Job job;
        job.fd = conns[i].fd;
        job.ctx = frame.ctx;
        job.payload.assign(frame.payload);
        conns.erase(conns.begin() + static_cast<std::ptrdiff_t>(i));
        {
          std::lock_guard<std::mutex> lock(queue_mu_);
          queue_.push_back(std::move(job));
        }
        queue_cv_.notify_one();
        continue;
      }
      if (closed) {
        close_conn(i);  // EOF before a complete frame
      }
    }
  }
  for (const Connection& conn : conns) {
    ::close(conn.fd);
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

void ShardServer::serve(const Job& job) {
  const Deadline write_deadline(2000.0);
  const auto reply_and_close = [&](const std::string& frame) {
    (void)send_all(job.fd, frame, write_deadline);
    ::close(job.fd);
  };
  if (job.ctx.type == FrameType::kPing) {
    FrameContext pong = job.ctx;
    pong.type = FrameType::kPong;
    pong.trace = 0;  // replies carry no extension
    reply_and_close(encode_frame(pong, {}));
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
    // client has moved on; the late write fails or is discarded.
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
      fbf::telemetry::Registry::global()
          .counter("net.server.requests")
          .increment();
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
    // A real mid-frame cut: ship half the frame, then RST via close.
    counters_.injected_disconnects.fetch_add(1);
    const std::string_view half(frame.data(), frame.size() / 2);
    (void)send_all(job.fd, half, write_deadline);
    ::close(job.fd);
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
  reply_and_close(frame);
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
  if (dead_fd_ >= 0) {
    ::close(dead_fd_);
  }
}

u::Result<std::string> TcpTransport::call_once(const FrameContext& ctx,
                                               std::string_view request,
                                               std::uint16_t port,
                                               double deadline_ms) {
  const Deadline deadline(deadline_ms);
  // Connect, retrying only genuine transient failures (backlog overflow)
  // under the shared RetryPolicy.  Injected refusals target a dead port,
  // so they burn these attempts instantly and still fail — the driver's
  // per-attempt accounting stays transport-independent.
  int fd = -1;
  u::Status last = u::Status::unavailable("connect(): no attempt made");
  for (int attempt = 1; attempt <= options_.connect_retry.bounded_attempts();
       ++attempt) {
    u::Result<int> conn = connect_loopback(port, deadline);
    if (conn.ok()) {
      fd = conn.value();
      break;
    }
    last = conn.status();
    if (deadline.expired() ||
        attempt == options_.connect_retry.bounded_attempts()) {
      return last;
    }
    sleep_ms(options_.connect_retry.next_delay_ms(attempt));
  }
  if (fd < 0) {
    return last;
  }
  const std::string frame = encode_frame(ctx, request);
  if (u::Status sent = send_all(fd, frame, deadline); !sent.ok()) {
    ::close(fd);
    return sent;
  }
  std::string buffer;
  char chunk[4096];
  while (true) {
    const DecodedFrame reply = try_decode_frame(buffer);
    if (reply.status == DecodeStatus::kCorrupt) {
      ::close(fd);
      return u::Status::data_loss(std::string("garbled frame: ") +
                                  reply.error);
    }
    if (reply.status == DecodeStatus::kFrame) {
      std::string payload(reply.payload);
      ::close(fd);
      if (reply.ctx.type == FrameType::kError ||
          reply.ctx.type == FrameType::kOverloaded) {
        return decode_error_payload(payload);
      }
      return payload;
    }
    if (deadline.expired()) {
      ::close(fd);
      return u::Status::unavailable("deadline expired awaiting reply");
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
      ::close(fd);
      return u::Status::unavailable(
          buffer.empty() ? "connection closed before reply"
                         : "connection closed mid-frame");
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      continue;
    }
    const int err = errno;
    ::close(fd);
    return u::Status::io_error("recv(): " + errno_text(err));
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
  std::uint16_t port = options_.port;
  const int attempt_key = static_cast<int>(ctx.attempt);
  if (injector_->shard_attempt_fails(shard, attempt_key) &&
      injector_->net_fault_kind(shard, attempt_key) ==
          u::NetFaultKind::kConnectRefused &&
      dead_port_ != 0) {
    port = dead_port_;  // nobody listens here: a real ECONNREFUSED
  }
  u::Result<std::string> result =
      call_once(ctx, request, port, options_.deadline_ms);
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
