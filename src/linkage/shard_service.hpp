// ShardReply: the counters one partition's link crosses the wire with.
//
// cluster::ClusterService answers every replica query by linking the
// stored partition against its copy of the right list and returning these
// counters as a kLinkReply payload; the driver merges them.  Whichever
// transport hosts the ClusterService, the same bytes come back — which is
// what makes transport equivalence testable.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

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

[[nodiscard]] std::string encode_shard_reply(const ShardReply& reply);
[[nodiscard]] fbf::util::Result<ShardReply> decode_shard_reply(
    std::string_view payload);

}  // namespace fbf::linkage
