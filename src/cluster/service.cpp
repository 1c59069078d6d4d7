#include "cluster/service.hpp"

#include <cstdio>
#include <iterator>

#include "linkage/record_codec.hpp"
#include "storage/chain.hpp"
#include "util/wire.hpp"

namespace fbf::cluster {

using fbf::util::Result;
using fbf::util::Status;
using fbf::util::wire::put;
using fbf::util::wire::put_string;
using fbf::util::wire::Reader;

namespace {

constexpr std::uint64_t kRecordsMagic = 0x3143455246424600ull;  // "\0FBFREC1"
constexpr std::uint32_t kRecordListVersion = 1;

// Chain prefixes under one backend, scoped by node then partition.
std::string partition_prefix(NodeId node, std::uint64_t pid) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "n%08x/p%016llx/", node,
                static_cast<unsigned long long>(pid));
  return buf;
}

/// A partition chain's positions count replica writes: the base covers
/// none, delta N covers [N - 1, N).
std::string delta_name(std::uint32_t seq) {
  return storage::delta_blob_name(seq - 1u, seq);
}

}  // namespace

std::string encode_record_list(std::span<const linkage::PersonRecord> records) {
  std::string payload;
  linkage::wire::put_record_list(payload, records);
  return storage::seal_envelope(kRecordsMagic, kRecordListVersion, payload);
}

Result<std::vector<linkage::PersonRecord>> decode_record_list(
    std::string_view blob) {
  auto payload = storage::open_envelope(blob, kRecordsMagic,
                                        kRecordListVersion, "record list");
  if (!payload.ok()) {
    return payload.status();
  }
  std::vector<linkage::PersonRecord> out;
  if (!linkage::wire::get_record_list(payload.value(), out)) {
    return Status::data_loss("record list malformed");
  }
  return out;
}

Result<std::string> write_partition_blob(storage::StorageBackend& backend,
                                         std::string prefix,
                                         std::uint32_t seq,
                                         std::string_view blob) {
  // A replica never stores bytes it could not serve; the commit's
  // read-back then only has to show that these are the bytes that landed.
  auto records = decode_record_list(blob);
  if (!records.ok()) {
    return records.status();
  }
  const std::uint64_t count = records.value().size();
  storage::CheckpointChain chain(backend, std::move(prefix));
  auto held = chain.read_manifest();
  const bool holds = held.ok();
  if (!holds && held.status().code() != fbf::util::StatusCode::kNotFound) {
    return held.status();
  }
  storage::ChainManifest next = holds ? held.value() : storage::ChainManifest{};
  if (holds && seq <= next.deltas.size()) {
    // A write that already landed (a retry after a lost reply) acks again.
    auto stored = backend.get(
        chain.ref(seq == 0 ? next.base_blob : next.deltas[seq - 1].blob));
    if (stored.ok() && stored.value() == blob) {
      return storage::encode_manifest(next);
    }
  }
  if (seq == 0) {  // a new base starts a new chain
    if (const Status st = holds ? chain.drop() : Status{}; !st.ok()) {
      return st;
    }
    next = {storage::base_blob_name(0), 0, count, {}};
  } else if (!holds || seq != next.batches_covered() + 1) {
    return Status::failed_precondition(
        "cluster service: delta " + std::to_string(seq) +
        " does not follow the held chain");
  } else {
    next.deltas.push_back({delta_name(seq), seq - 1u, seq,
                           next.records_covered(),
                           next.records_covered() + count});
  }
  const std::string name =
      next.deltas.empty() ? next.base_blob : next.deltas.back().blob;
  const auto landed_intact = [blob](std::string_view landed) {
    return landed == blob ? Status{}
                          : Status::data_loss("cluster service: blob read "
                                              "back differs");
  };
  return chain.commit(holds && seq != 0 ? &held.value() : nullptr, next, name,
                      blob, landed_intact);
}

Result<std::vector<linkage::PersonRecord>> read_partition_chain(
    storage::StorageBackend& backend, std::string prefix) {
  storage::CheckpointChain chain(backend, std::move(prefix));
  auto manifest = chain.read_manifest();
  if (!manifest.ok()) {
    return manifest.status().code() == fbf::util::StatusCode::kNotFound
               ? Status::not_found("cluster service: partition not held")
               : manifest.status();
  }
  std::vector<linkage::PersonRecord> out;
  const auto append = [&out](std::string_view bytes,
                             std::uint64_t expected) -> Status {
    auto records = decode_record_list(bytes);
    if (!records.ok()) {
      return records.status();
    }
    if (records.value().size() != expected) {
      return Status::data_loss("cluster service: blob disagrees with manifest");
    }
    out.insert(out.end(), std::make_move_iterator(records.value().begin()),
               std::make_move_iterator(records.value().end()));
    return {};
  };
  const Status walked = chain.walk(
      manifest.value(),
      [&](std::string_view bytes) {
        return append(bytes, manifest.value().base_records);
      },
      [&](const storage::ChainManifest::Segment& seg, std::string_view bytes) {
        return append(bytes, seg.to_record - seg.from_record);
      });
  if (!walked.ok()) {
    return walked;
  }
  return out;
}

std::string encode_replica_write(const ReplicaWrite& msg) {
  std::string out;
  put<std::uint64_t>(out, msg.pid);
  put<std::uint32_t>(out, msg.delta_seq);
  put_string(out, msg.blob);
  return out;
}

Result<ReplicaWrite> decode_replica_write(std::string_view payload) {
  Reader in{payload};
  ReplicaWrite msg;
  if (!in.get(msg.pid) || !in.get(msg.delta_seq) || !in.get_string(msg.blob) ||
      !in.done()) {
    return Status::data_loss("replica write: malformed payload");
  }
  return msg;
}

std::string encode_replica_query(const ReplicaQuery& msg) {
  std::string out;
  put<std::uint64_t>(out, msg.pid);
  return out;
}

Result<ReplicaQuery> decode_replica_query(std::string_view payload) {
  Reader in{payload};
  ReplicaQuery msg;
  if (!in.get(msg.pid) || !in.done()) {
    return Status::data_loss("replica query: malformed payload");
  }
  return msg;
}

std::string encode_state_fetch(const StateFetch& msg) {
  std::string out;
  put<std::uint64_t>(out, msg.pid);
  put<std::uint8_t>(out, static_cast<std::uint8_t>(msg.what));
  put<std::uint32_t>(out, msg.index);
  return out;
}

Result<StateFetch> decode_state_fetch(std::string_view payload) {
  Reader in{payload};
  StateFetch msg;
  std::uint8_t what = 0;
  if (!in.get(msg.pid) || !in.get(what) || !in.get(msg.index) || !in.done()) {
    return Status::data_loss("state fetch: malformed payload");
  }
  if (what > static_cast<std::uint8_t>(StateFetch::What::kDelta)) {
    return Status::data_loss("state fetch: unknown blob kind");
  }
  msg.what = static_cast<StateFetch::What>(what);
  return msg;
}

std::string encode_state_drop(const StateDrop& msg) {
  std::string out;
  put<std::uint64_t>(out, msg.pid);
  return out;
}

Result<StateDrop> decode_state_drop(std::string_view payload) {
  Reader in{payload};
  StateDrop msg;
  if (!in.get(msg.pid) || !in.done()) {
    return Status::data_loss("state drop: malformed payload");
  }
  return msg;
}

ClusterService::ClusterService(linkage::LinkConfig link,
                               std::span<const linkage::PersonRecord> right,
                               ClusterServiceOptions options)
    : link_(std::move(link)),
      right_(right),
      injector_(options.storage_faults),
      store_(&injector_) {}

Result<std::string> ClusterService::handle(const net::FrameContext& ctx,
                                           std::string_view payload) {
  const NodeId node = ctx.shard;
  switch (ctx.type) {
    case net::FrameType::kPing:
      return std::string{};
    case net::FrameType::kReplicaWrite:
      return handle_write(node, payload);
    case net::FrameType::kReplicaQuery:
      return handle_query(node, payload);
    case net::FrameType::kStateFetch:
      return handle_fetch(node, payload);
    case net::FrameType::kStateDrop:
      return handle_drop(node, payload);
    default:
      return Status::invalid_argument("cluster service: unexpected frame type");
  }
}

Result<std::string> ClusterService::handle_write(NodeId node,
                                                 std::string_view payload) {
  auto msg = decode_replica_write(payload);
  if (!msg.ok()) {
    return msg.status();
  }
  const std::scoped_lock lock(mu_);
  return write_partition_blob(store_, partition_prefix(node, msg.value().pid),
                              msg.value().delta_seq, msg.value().blob);
}

Result<std::string> ClusterService::handle_query(NodeId node,
                                                 std::string_view payload) {
  auto msg = decode_replica_query(payload);
  if (!msg.ok()) {
    return msg.status();
  }
  std::vector<linkage::PersonRecord> records;
  {
    const std::scoped_lock lock(mu_);
    auto chain =
        read_partition_chain(store_, partition_prefix(node, msg.value().pid));
    if (!chain.ok()) {
      return chain.status();
    }
    records = std::move(chain.value());
  }
  // Link outside the store lock.
  const linkage::LinkStats stats =
      linkage::link_exhaustive(records, right_context(), link_);
  linkage::ShardReply reply;
  reply.pairs = stats.candidate_pairs;
  reply.matches = stats.matches;
  reply.true_positives = stats.true_positives;
  reply.link_ms = stats.link_ms;
  return linkage::encode_shard_reply(reply);
}

const linkage::LinkageContext& ClusterService::right_context() {
  const std::scoped_lock lock(context_mu_);
  if (!right_context_.has_value()) {
    // Full ExecPolicy so the context inherits the configured candidate
    // generator.
    right_context_.emplace(right_, link_.comparator, link_.exec);
  }
  return *right_context_;
}

Result<std::string> ClusterService::handle_fetch(NodeId node,
                                                 std::string_view payload) {
  auto msg = decode_state_fetch(payload);
  if (!msg.ok()) {
    return msg.status();
  }
  const StateFetch& fetch = msg.value();
  const storage::CheckpointChain chain(store_,
                                       partition_prefix(node, fetch.pid));
  const storage::BlobRef blob =
      fetch.what == StateFetch::What::kManifest ? chain.manifest_ref()
      : fetch.what == StateFetch::What::kBase
          ? chain.ref(storage::base_blob_name(0))
          : chain.ref(delta_name(fetch.index));
  const std::scoped_lock lock(mu_);
  return store_.get(blob);
}

Result<std::string> ClusterService::handle_drop(NodeId node,
                                                std::string_view payload) {
  auto msg = decode_state_drop(payload);
  if (!msg.ok()) {
    return msg.status();
  }
  const std::scoped_lock lock(mu_);
  storage::CheckpointChain chain(store_,
                                 partition_prefix(node, msg.value().pid));
  if (const Status st = chain.drop(); !st.ok()) {
    return st;
  }
  return std::string{};
}

bool ClusterService::node_has_partition(NodeId node, std::uint64_t pid) {
  const std::scoped_lock lock(mu_);
  auto found = store_.exists(
      storage::CheckpointChain(store_, partition_prefix(node, pid))
          .manifest_ref());
  return found.ok() && found.value();
}

}  // namespace fbf::cluster
