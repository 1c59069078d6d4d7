// fbf::Client — the one request-level entry point (DESIGN.md §15).
//
// Callers build a MatchRequest and get a MatchResponse; whether the
// service runs in this process (InProcessTransport around a
// MatchService handler) or behind a socket (TcpTransport against a
// ShardServer) is a constructor choice, not an API difference.  The
// property the serve tests pin down: for the same request against the
// same service state, both backends return fingerprint-equal responses
// (serve::match_response_fingerprint), under fault injection included.
//
// Retry policy: transient delivery failures (kUnavailable, kIoError,
// kDataLoss, kDeadlineExceeded-shaped timeouts) retry up to
// max_attempts with the attempt number incremented, so injected
// per-(shard, attempt) faults clear on the retry exactly like the
// elastic shard driver's loop.  Application verdicts never retry:
// kInvalidArgument is a broken request, and kResourceExhausted
// (kOverloaded on the wire) surfaces immediately — backing off is the
// caller's decision, not something to hide inside a blind retry.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "net/transport.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "util/fault.hpp"
#include "util/status.hpp"

namespace fbf {

struct ClientOptions {
  /// Delivery attempts per call (1 = no retry).
  int max_attempts = 3;
  /// Logical shard id stamped on frames (keys the fault draws).
  std::size_t shard = 0;
};

class Client {
 public:
  /// Remote (or any custom) backend: the transport owns delivery.
  explicit Client(std::shared_ptr<net::ShardTransport> transport,
                  ClientOptions options = {});

  /// In-process backend over `service` (which must outlive the client).
  /// `faults`, when set, injects per-attempt delivery failures exactly
  /// like the TCP path draws them.
  [[nodiscard]] static Client in_process(
      serve::MatchService& service,
      std::optional<fbf::util::FaultConfig> faults = std::nullopt,
      ClientOptions options = {});

  [[nodiscard]] fbf::util::Result<MatchResponse> match(
      const MatchRequest& request);
  /// Convenience: string point lookup.
  [[nodiscard]] fbf::util::Result<MatchResponse> match_string(
      std::string_view text, std::uint32_t max_matches = 8);
  /// Convenience: record probe.
  [[nodiscard]] fbf::util::Result<MatchResponse> match_record(
      const linkage::PersonRecord& record, std::uint32_t max_matches = 8);

  [[nodiscard]] fbf::util::Result<serve::IngestReply> ingest(
      std::span<const linkage::PersonRecord> records);
  [[nodiscard]] fbf::util::Result<serve::IngestReply> ingest_csv(
      std::string_view csv);

  /// Full telemetry snapshot (AdminCommand::kMetrics): every counter /
  /// gauge / histogram the service exposes under the canonical dotted
  /// names, plus the process-global registry of the serving process.
  [[nodiscard]] fbf::util::Result<telemetry::MetricsSnapshot> metrics();

  [[nodiscard]] fbf::util::Result<serve::DrainReply> drain_quarantine();

  /// Liveness round-trip (empty ping payload).
  [[nodiscard]] fbf::util::Status ping();

  [[nodiscard]] const net::TransportStats& transport_stats() const noexcept {
    return transport_->stats();
  }
  [[nodiscard]] const char* backend_name() const noexcept {
    return transport_->name();
  }

 private:
  [[nodiscard]] fbf::util::Result<std::string> call(net::FrameType type,
                                                    std::string_view payload);

  std::shared_ptr<net::ShardTransport> transport_;
  ClientOptions options_;
};

}  // namespace fbf
