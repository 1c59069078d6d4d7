#include "cluster/service.hpp"

#include <algorithm>
#include <cstdio>

#include "linkage/record_codec.hpp"
#include "util/rng.hpp"
#include "util/wire.hpp"

namespace fbf::cluster {

using fbf::util::Result;
using fbf::util::Status;
using fbf::util::wire::put;
using fbf::util::wire::put_string;
using fbf::util::wire::Reader;

namespace {

// Blob names under one backend, scoped by node then partition.  Sorted
// listing of a partition prefix yields MANIFEST, base, delta-000001...
// ('M' < 'b' < 'd'), which is exactly chain order after the manifest.
std::string partition_prefix(NodeId node, std::uint64_t pid) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "n%08x/p%016llx/", node,
                static_cast<unsigned long long>(pid));
  return buf;
}

std::string node_prefix(NodeId node) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "n%08x/", node);
  return buf;
}

std::string manifest_name(NodeId node, std::uint64_t pid) {
  return partition_prefix(node, pid) + "MANIFEST";
}

std::string base_name(NodeId node, std::uint64_t pid) {
  return partition_prefix(node, pid) + "base";
}

std::string delta_name(NodeId node, std::uint64_t pid, std::uint32_t seq) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "delta-%06u", seq);
  return partition_prefix(node, pid) + buf;
}

/// Order-sensitive fold over chain blobs: mixing each blob's fnv through
/// a SplitMix64 step keeps the fold sensitive to blob order, not just
/// content multiset.
std::uint64_t fold_chain_hash(std::uint64_t h, std::string_view blob) {
  return fbf::util::SplitMix64(h ^ fbf::util::fnv1a64(blob)).next();
}

}  // namespace

std::string encode_record_list(std::span<const linkage::PersonRecord> records) {
  std::string out;
  put<std::uint64_t>(out, records.size());
  for (const linkage::PersonRecord& r : records) {
    linkage::wire::put_record(out, r);
  }
  return out;
}

Result<std::vector<linkage::PersonRecord>> decode_record_list(
    std::string_view blob) {
  Reader in{blob};
  std::uint64_t count = 0;
  if (!in.get(count)) {
    return Status::data_loss("record list: truncated count");
  }
  std::vector<linkage::PersonRecord> out;
  out.reserve(
      static_cast<std::size_t>(std::min<std::uint64_t>(count, blob.size())));
  for (std::uint64_t i = 0; i < count; ++i) {
    linkage::PersonRecord r;
    if (!linkage::wire::get_record(in, r)) {
      return Status::data_loss("record list: truncated record");
    }
    out.push_back(std::move(r));
  }
  if (!in.done()) {
    return Status::data_loss("record list: trailing bytes");
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

std::string encode_manifest(const PartitionManifest& m) {
  std::string out;
  put<std::uint64_t>(out, m.pid);
  put<std::uint64_t>(out, m.record_count);
  put<std::uint32_t>(out, m.delta_count);
  put<std::uint64_t>(out, m.chain_hash);
  return out;
}

Result<PartitionManifest> decode_manifest(std::string_view blob) {
  Reader in{blob};
  PartitionManifest m;
  if (!in.get(m.pid) || !in.get(m.record_count) || !in.get(m.delta_count) ||
      !in.get(m.chain_hash) || !in.done()) {
    return Status::data_loss("manifest: malformed payload");
  }
  return m;
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

Status ClusterService::rebuild_manifest(NodeId node, std::uint64_t pid) {
  PartitionManifest m;
  m.pid = pid;
  m.chain_hash = pid;
  auto base = store_.get({base_name(node, pid)});
  if (!base.ok()) {
    return Status::data_loss("cluster service: base unreadable on rebuild");
  }
  auto records = decode_record_list(base.value());
  if (!records.ok()) {
    return Status::data_loss("cluster service: base undecodable on rebuild");
  }
  m.record_count = records.value().size();
  m.chain_hash = fold_chain_hash(m.chain_hash, base.value());
  // Deltas are numbered 1..N with zero-padded names, so the sorted
  // listing already walks them in sequence order.
  auto blobs = store_.list(partition_prefix(node, pid) + "delta-");
  if (!blobs.ok()) {
    return blobs.status();
  }
  for (const storage::BlobRef& ref : blobs.value()) {
    auto delta = store_.get(ref);
    if (!delta.ok()) {
      return Status::data_loss("cluster service: delta unreadable on rebuild");
    }
    auto drec = decode_record_list(delta.value());
    if (!drec.ok()) {
      return Status::data_loss("cluster service: delta undecodable on rebuild");
    }
    m.record_count += drec.value().size();
    m.chain_hash = fold_chain_hash(m.chain_hash, delta.value());
    ++m.delta_count;
  }
  return store_.put({manifest_name(node, pid)}, encode_manifest(m));
}

Result<std::vector<linkage::PersonRecord>> ClusterService::load_chain(
    NodeId node, std::uint64_t pid) {
  auto manifest_blob = store_.get({manifest_name(node, pid)});
  if (!manifest_blob.ok()) {
    if (manifest_blob.status().code() == fbf::util::StatusCode::kNotFound) {
      return Status::not_found("cluster service: partition not held");
    }
    return manifest_blob.status();
  }
  auto manifest = decode_manifest(manifest_blob.value());
  if (!manifest.ok()) {
    return manifest.status();
  }
  auto base = store_.get({base_name(node, pid)});
  if (!base.ok()) {
    return Status::data_loss("cluster service: base blob missing");
  }
  auto records = decode_record_list(base.value());
  if (!records.ok()) {
    return records.status();
  }
  std::vector<linkage::PersonRecord> out = std::move(records.value());
  for (std::uint32_t seq = 1; seq <= manifest.value().delta_count; ++seq) {
    auto delta = store_.get({delta_name(node, pid, seq)});
    if (!delta.ok()) {
      return Status::data_loss("cluster service: delta blob missing");
    }
    auto drec = decode_record_list(delta.value());
    if (!drec.ok()) {
      return drec.status();
    }
    out.insert(out.end(), drec.value().begin(), drec.value().end());
  }
  return out;
}

Result<std::string> ClusterService::handle_write(NodeId node,
                                                 std::string_view payload) {
  auto msg = decode_replica_write(payload);
  if (!msg.ok()) {
    return msg.status();
  }
  // Validate the blob before anything lands: a replica never stores
  // bytes it could not serve.
  auto records = decode_record_list(msg.value().blob);
  if (!records.ok()) {
    return records.status();
  }
  const std::scoped_lock lock(mu_);
  const std::uint64_t pid = msg.value().pid;
  if (msg.value().delta_seq == 0) {
    if (const auto st = store_.put({base_name(node, pid)}, msg.value().blob);
        !st.ok()) {
      return st;
    }
  } else {
    auto have_base = store_.exists({base_name(node, pid)});
    if (!have_base.ok()) {
      return have_base.status();
    }
    if (!have_base.value()) {
      return Status::failed_precondition(
          "cluster service: delta write before base");
    }
    if (const auto st = store_.put(
            {delta_name(node, pid, msg.value().delta_seq)}, msg.value().blob);
        !st.ok()) {
      return st;
    }
  }
  // Verify-before-ack: read the stored chain back and rewrite the
  // manifest from what actually landed.  A torn or lost put surfaces
  // here as a failed write attempt, not as a later wrong answer.
  if (const auto st = rebuild_manifest(node, pid); !st.ok()) {
    return st;
  }
  return store_.get({manifest_name(node, pid)});
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
    auto chain = load_chain(node, msg.value().pid);
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
  std::string name;
  switch (msg.value().what) {
    case StateFetch::What::kManifest:
      name = manifest_name(node, msg.value().pid);
      break;
    case StateFetch::What::kBase:
      name = base_name(node, msg.value().pid);
      break;
    case StateFetch::What::kDelta:
      name = delta_name(node, msg.value().pid, msg.value().index);
      break;
  }
  const std::scoped_lock lock(mu_);
  return store_.get({std::move(name)});
}

Result<std::string> ClusterService::handle_drop(NodeId node,
                                                std::string_view payload) {
  auto msg = decode_state_drop(payload);
  if (!msg.ok()) {
    return msg.status();
  }
  const std::scoped_lock lock(mu_);
  auto blobs = store_.list(partition_prefix(node, msg.value().pid));
  if (!blobs.ok()) {
    return blobs.status();
  }
  for (const storage::BlobRef& ref : blobs.value()) {
    if (const auto st = store_.remove(ref); !st.ok()) {
      return st;
    }
  }
  return std::string{};
}

bool ClusterService::node_has_partition(NodeId node, std::uint64_t pid) {
  const std::scoped_lock lock(mu_);
  auto found = store_.exists({manifest_name(node, pid)});
  return found.ok() && found.value();
}

std::size_t ClusterService::node_partition_count(NodeId node) {
  const std::scoped_lock lock(mu_);
  auto blobs = store_.list(node_prefix(node));
  if (!blobs.ok()) {
    return 0;
  }
  std::size_t count = 0;
  for (const storage::BlobRef& ref : blobs.value()) {
    if (ref.name.size() >= 8 &&
        ref.name.compare(ref.name.size() - 8, 8, "MANIFEST") == 0) {
      ++count;
    }
  }
  return count;
}

}  // namespace fbf::cluster
