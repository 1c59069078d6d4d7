#include "linkage/shard_service.hpp"

#include "util/wire.hpp"

namespace fbf::linkage {

using fbf::util::Result;
using fbf::util::Status;
using fbf::util::wire::put;
using fbf::util::wire::Reader;

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

}  // namespace fbf::linkage
