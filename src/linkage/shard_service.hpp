// ShardLinkService: the link engine behind every cluster replica query.
//
// A kLinkRequest payload carries one partition's left records; the
// service links them against its own copy of the right list through a
// lazily built LinkageContext (signatures + filter bank built once,
// shared by every worker) — the right list is broadcast state, never
// shipped per request.  The reply is the counters the driver merges
// (kLinkReply).  cluster::ClusterService answers every replica query by
// handing the partition's records to this handler as a kLinkRequest, so
// whichever transport hosts the ClusterService, the same bytes reach the
// same link engine — which is what makes transport equivalence testable.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "linkage/engine.hpp"
#include "net/transport.hpp"
#include "util/status.hpp"

namespace fbf::linkage {

/// The counters one partition's link crosses the wire with (scheduling
/// fields like attempts and backoff stay driver-side).
struct ShardReply {
  std::uint64_t pairs = 0;
  std::uint64_t matches = 0;
  std::uint64_t true_positives = 0;
  double link_ms = 0.0;
};

/// kLinkRequest payload: the left records of one partition.
[[nodiscard]] std::string encode_link_request(
    std::span<const PersonRecord> left);
[[nodiscard]] fbf::util::Result<std::vector<PersonRecord>>
decode_link_request(std::string_view payload);

[[nodiscard]] std::string encode_shard_reply(const ShardReply& reply);
[[nodiscard]] fbf::util::Result<ShardReply> decode_shard_reply(
    std::string_view payload);

class ShardLinkService {
 public:
  /// `right` must outlive the service (every request links against it).
  /// The LinkConfig is the driver's — same comparator, same ExecPolicy —
  /// so results match a local run exactly.
  ShardLinkService(LinkConfig config, std::span<const PersonRecord> right);

  /// Processes one request payload (kPing -> empty pong payload,
  /// kLinkRequest -> encoded ShardReply).
  [[nodiscard]] fbf::util::Result<std::string> handle(
      const net::FrameContext& ctx, std::string_view payload);

  /// The service as a transport handler.
  [[nodiscard]] net::ShardHandler handler() {
    return [this](const net::FrameContext& ctx, std::string_view payload) {
      return handle(ctx, payload);
    };
  }

 private:
  const LinkageContext& right_context();

  LinkConfig config_;
  std::span<const PersonRecord> right_;
  std::mutex mu_;  ///< guards the lazy right_context_ build (workers race)
  std::optional<LinkageContext> right_context_;
};

}  // namespace fbf::linkage
