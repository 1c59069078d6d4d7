#include "linkage/shard_service.hpp"

#include <algorithm>

#include "linkage/record_codec.hpp"
#include "util/wire.hpp"

namespace fbf::linkage {

using fbf::util::Result;
using fbf::util::Status;
using fbf::util::wire::put;
using fbf::util::wire::Reader;

std::string encode_link_request(std::span<const PersonRecord> left) {
  std::string out;
  put<std::uint64_t>(out, left.size());
  for (const PersonRecord& r : left) {
    wire::put_record(out, r);
  }
  return out;
}

Result<std::vector<PersonRecord>> decode_link_request(
    std::string_view payload) {
  Reader in{payload};
  std::uint64_t left_count = 0;
  if (!in.get(left_count)) {
    return Status::data_loss("link request: truncated header");
  }
  std::vector<PersonRecord> left;
  left.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(left_count, payload.size())));
  for (std::uint64_t i = 0; i < left_count; ++i) {
    PersonRecord r;
    if (!wire::get_record(in, r)) {
      return Status::data_loss("link request: truncated left records");
    }
    left.push_back(std::move(r));
  }
  if (!in.done()) {
    return Status::data_loss("link request: trailing bytes");
  }
  return left;
}

std::string encode_shard_reply(const ShardReply& reply) {
  std::string out;
  put<std::uint64_t>(out, reply.pairs);
  put<std::uint64_t>(out, reply.matches);
  put<std::uint64_t>(out, reply.true_positives);
  put<double>(out, reply.link_ms);
  return out;
}

Result<ShardReply> decode_shard_reply(std::string_view payload) {
  Reader in{payload};
  ShardReply reply;
  if (!in.get(reply.pairs) || !in.get(reply.matches) ||
      !in.get(reply.true_positives) || !in.get(reply.link_ms) || !in.done()) {
    return Status::data_loss("shard reply: malformed payload");
  }
  return reply;
}

ShardLinkService::ShardLinkService(LinkConfig config,
                                   std::span<const PersonRecord> right)
    : config_(std::move(config)), right_(right) {}

const LinkageContext& ShardLinkService::right_context() {
  const std::scoped_lock lock(mu_);
  if (!right_context_.has_value()) {
    // Full ExecPolicy so the per-shard context inherits the configured
    // candidate generator; a rebalance handoff tears the service down and
    // the replacement shard lazily rebuilds its index here.
    right_context_.emplace(right_, config_.comparator, config_.exec);
  }
  return *right_context_;
}

Result<std::string> ShardLinkService::handle(const net::FrameContext& ctx,
                                             std::string_view payload) {
  if (ctx.type == net::FrameType::kPing) {
    return std::string{};
  }
  if (ctx.type != net::FrameType::kLinkRequest) {
    return Status::invalid_argument("shard service: unexpected frame type");
  }
  auto left = decode_link_request(payload);
  if (!left.ok()) {
    return left.status();
  }
  const LinkStats stats =
      link_exhaustive(left.value(), right_context(), config_);
  ShardReply reply;
  reply.pairs = stats.candidate_pairs;
  reply.matches = stats.matches;
  reply.true_positives = stats.true_positives;
  reply.link_ms = stats.link_ms;
  return encode_shard_reply(reply);
}

}  // namespace fbf::linkage
