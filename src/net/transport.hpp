// ShardTransport: how the shard driver reaches a shard worker.
//
// The driver (cluster::link_elastic) owns partitioning, retry/backoff and
// degradation accounting; the transport owns *delivery*: hand a request
// payload to the worker for (shard, attempt), return the reply payload or
// a Status describing why the attempt failed.  Two implementations:
//
//  * InProcessTransport — invokes the handler directly.  Deterministic
//    reference: injected faults come straight from the FaultInjector
//    decision, no sockets involved.
//  * TcpTransport (net/tcp.hpp) — real loopback sockets against a
//    ShardServer, over one connection the transport keeps and reuses.
//    The same fault decisions manifest as real connection failures
//    (refused connect, mid-frame disconnect, deadline expiry, garbled
//    frame); each failed call closes the kept connection.
//
// A transport carries one call at a time: callers that run concurrently
// keep one transport per thread.
//
// Both route the same encoded payloads through the same handler, so a
// run's counters (matches, retries, dropped partitions) are transport-
// independent — the equivalence property tests assert exactly that.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "net/frame.hpp"
#include "telemetry/telemetry.hpp"
#include "util/fault.hpp"
#include "util/status.hpp"

namespace fbf::net {

/// Server-side request processor: decode `payload` for `ctx`, do the
/// work, return the reply payload (or an error Status, which the
/// transport surfaces to the caller as a failed attempt).
using ShardHandler = std::function<fbf::util::Result<std::string>(
    const FrameContext& ctx, std::string_view payload)>;

/// Client-side delivery tallies, broken down by the NetFaultKind each
/// failed call manifested as.  Both transports maintain one: the TCP
/// client classifies the *observed* socket failure, the in-process
/// transport records the injected kind draw directly — so an injected-
/// fault run is auditable (and comparable across transports) from the
/// stats alone.
struct TransportStats {
  std::uint64_t calls = 0;
  std::uint64_t ok = 0;
  std::uint64_t connect_refused = 0;   ///< NetFaultKind::kConnectRefused
  std::uint64_t disconnects = 0;       ///< NetFaultKind::kMidFrameDisconnect
  std::uint64_t deadline_expired = 0;  ///< NetFaultKind::kDeadlineExpiry
  std::uint64_t garbled = 0;           ///< NetFaultKind::kGarbledFrame
  std::uint64_t other_errors = 0;      ///< failures outside the four kinds

  [[nodiscard]] std::uint64_t& by_kind(fbf::util::NetFaultKind kind) noexcept {
    switch (kind) {
      case fbf::util::NetFaultKind::kConnectRefused: return connect_refused;
      case fbf::util::NetFaultKind::kMidFrameDisconnect: return disconnects;
      case fbf::util::NetFaultKind::kDeadlineExpiry: return deadline_expired;
      case fbf::util::NetFaultKind::kGarbledFrame: return garbled;
    }
    return other_errors;
  }
  [[nodiscard]] std::uint64_t failures(
      fbf::util::NetFaultKind kind) const noexcept {
    switch (kind) {
      case fbf::util::NetFaultKind::kConnectRefused: return connect_refused;
      case fbf::util::NetFaultKind::kMidFrameDisconnect: return disconnects;
      case fbf::util::NetFaultKind::kDeadlineExpiry: return deadline_expired;
      case fbf::util::NetFaultKind::kGarbledFrame: return garbled;
    }
    return 0;
  }
  [[nodiscard]] std::uint64_t total_failures() const noexcept {
    return connect_refused + disconnects + deadline_expired + garbled +
           other_errors;
  }
};

namespace detail {

/// Cached global-registry handles for the canonical net.* counter family
/// (DESIGN.md §16): every transport mirrors its TransportStats tallies
/// here, so a live metrics snapshot shows per-NetFaultKind delivery
/// counts without asking each client.  One registry lookup per process;
/// one relaxed add per event after that.
struct NetTelemetry {
  telemetry::Counter& calls;
  telemetry::Counter& connects;  ///< connections a TcpTransport opened
  telemetry::Counter& ok;
  telemetry::Counter& connect_refused;
  telemetry::Counter& disconnects;
  telemetry::Counter& deadline;
  telemetry::Counter& garbled;
  telemetry::Counter& other;

  [[nodiscard]] telemetry::Counter& by_kind(
      fbf::util::NetFaultKind kind) noexcept {
    switch (kind) {
      case fbf::util::NetFaultKind::kConnectRefused: return connect_refused;
      case fbf::util::NetFaultKind::kMidFrameDisconnect: return disconnects;
      case fbf::util::NetFaultKind::kDeadlineExpiry: return deadline;
      case fbf::util::NetFaultKind::kGarbledFrame: return garbled;
    }
    return other;
  }
};

[[nodiscard]] inline NetTelemetry& net_telemetry() {
  auto& registry = telemetry::Registry::global();
  static NetTelemetry cached{registry.counter("net.calls"),
                             registry.counter("net.connects"),
                             registry.counter("net.ok"),
                             registry.counter("net.fault.connect_refused"),
                             registry.counter("net.fault.disconnect"),
                             registry.counter("net.fault.deadline"),
                             registry.counter("net.fault.garbled"),
                             registry.counter("net.fault.other")};
  return cached;
}

/// Client-side delivery span for a traced request (no-op when untraced).
inline void record_call_span(std::uint64_t trace, std::size_t shard,
                             int attempt, bool ok) {
  if (trace == 0) {
    return;
  }
  telemetry::SpanRecord span;
  span.trace = trace;
  span.name = "net.call";
  span.shard = static_cast<std::uint32_t>(shard);
  span.attempt = attempt > 0 ? static_cast<std::uint32_t>(attempt) : 1u;
  span.ok = ok;
  telemetry::Registry::global().record_span(std::move(span));
}

}  // namespace detail

class ShardTransport {
 public:
  virtual ~ShardTransport() = default;

  /// Delivers `request` to the worker for (shard, attempt) and returns
  /// the reply payload.  A non-OK result is one failed attempt; the
  /// caller decides whether to retry.
  [[nodiscard]] virtual fbf::util::Result<std::string> call(
      std::size_t shard, int attempt, FrameType type,
      std::string_view request) = 0;

  [[nodiscard]] virtual const char* name() const noexcept = 0;

  /// True when delays (backoff, deadlines) happen in real time; false
  /// when the caller should only *record* them (simulated wall-clock).
  [[nodiscard]] virtual bool real_time() const noexcept { return false; }

  /// Per-kind delivery tallies for this client.
  [[nodiscard]] virtual const TransportStats& stats() const noexcept = 0;
};

/// The deterministic reference transport: calls the handler in place.
/// With a FaultConfig armed, failure decisions are drawn per (shard,
/// attempt) exactly like the TCP path draws them — minus the sockets.
class InProcessTransport final : public ShardTransport {
 public:
  explicit InProcessTransport(
      ShardHandler handler,
      std::optional<fbf::util::FaultConfig> faults = std::nullopt)
      : handler_(std::move(handler)) {
    if (faults.has_value()) {
      injector_.emplace(*faults);
    }
  }

  [[nodiscard]] fbf::util::Result<std::string> call(
      std::size_t shard, int attempt, FrameType type,
      std::string_view request) override {
    ++stats_.calls;
    if (telemetry::enabled()) {
      detail::net_telemetry().calls.increment();
    }
    // The trace id is derived from the request bytes HERE, on the client
    // side of the call, exactly like the TCP transport derives it — so
    // the handler observes the same id over both backends, and a retry
    // of the same request keeps its id.
    const std::uint64_t trace =
        telemetry::trace_enabled()
            ? telemetry::derive_trace_id(static_cast<std::uint16_t>(type),
                                         request)
            : 0;
    if (injector_.has_value() && injector_->shard_attempt_fails(shard, attempt)) {
      // No socket to break, but the kind draw is the same one the TCP
      // path would manifest — tally it so fault runs are auditable and
      // per-kind stats stay transport-comparable.
      const fbf::util::NetFaultKind kind =
          injector_->net_fault_kind(shard, attempt);
      ++stats_.by_kind(kind);
      if (telemetry::enabled()) {
        detail::net_telemetry().by_kind(kind).increment();
      }
      detail::record_call_span(trace, shard, attempt, /*ok=*/false);
      return fbf::util::Status::unavailable("injected shard fault");
    }
    FrameContext ctx;
    ctx.type = type;
    ctx.shard = static_cast<std::uint32_t>(shard);
    ctx.attempt = attempt > 0 ? static_cast<std::uint32_t>(attempt) : 1u;
    ctx.trace = trace;
    fbf::util::Result<std::string> reply = handler_(ctx, request);
    if (reply.ok()) {
      ++stats_.ok;
      if (telemetry::enabled()) {
        detail::net_telemetry().ok.increment();
      }
    } else {
      ++stats_.other_errors;
      if (telemetry::enabled()) {
        detail::net_telemetry().other.increment();
      }
    }
    detail::record_call_span(trace, shard, attempt, reply.ok());
    return reply;
  }

  [[nodiscard]] const char* name() const noexcept override {
    return "inprocess";
  }

  [[nodiscard]] const TransportStats& stats() const noexcept override {
    return stats_;
  }

 private:
  ShardHandler handler_;
  std::optional<fbf::util::FaultInjector> injector_;
  TransportStats stats_;
};

}  // namespace fbf::net
