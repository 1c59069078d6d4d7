#include "cluster/elastic.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "cluster/service.hpp"
#include "linkage/shard_service.hpp"
#include "storage/chain.hpp"
#include "telemetry/telemetry.hpp"
#include "util/retry.hpp"
#include "util/rng.hpp"

namespace fbf::cluster {

namespace u = fbf::util;
using fbf::util::Result;
using fbf::util::Status;

namespace {

// ---------------------------------------------------------------------
// Attempt-key folding.
//
// The fault injector draws per (shard, attempt) — one logical dial per
// node.  The elastic driver makes many kinds of calls to the same node
// (replica writes, queries, state fetches, drops, delta traffic), and
// each must draw independently or a single unlucky draw would fail a
// whole family of unrelated calls in lockstep.  Folding (partition
// index, op, attempt) into the attempt field gives every call site its
// own stream while staying a pure function of stable identities — and
// because the folded value rides the frame's attempt field, a TCP
// server draws the identical fault schedule from its own injector.
enum OpKind : std::uint64_t {
  kOpWrite = 0,  ///< base replica install
  kOpQuery = 1,  ///< replica link query
  kOpFetch = 2,  ///< migration state fetch
  kOpDrop = 3,   ///< state drop (cleanup / pre-install reset)
  kOpDelta = 4,  ///< catch-up delta install
};

constexpr std::uint64_t kOpSlots = 8;
constexpr std::uint64_t kAttemptSlots = 16;

int fold_attempt(std::size_t pidx, std::uint64_t op, int attempt) noexcept {
  const std::uint64_t a =
      static_cast<std::uint64_t>(std::clamp(attempt, 1, 16)) - 1;
  const std::uint64_t v =
      1 + ((static_cast<std::uint64_t>(pidx) * kOpSlots + op) * kAttemptSlots +
           a);
  return static_cast<int>(v & 0x3FFFFFFFull);
}

/// Stable jitter key for one (partition, node, op) retry loop.
std::uint64_t jitter_key(std::uint64_t pid, NodeId node,
                         std::uint64_t op) noexcept {
  return pid ^ (static_cast<std::uint64_t>(node) * 0xD1B54A32D192ED03ull) ^
         (op * 0x2545F4914F6CDD1Dull);
}

// ---------------------------------------------------------------------
// NodeGate: scripted node death as a transport decorator.
//
// A killed node must fail every call routed to it, on any transport —
// the in-process handler has no socket to unplug, and reaching into a
// TCP server from the driver would race its workers.  Gating at the
// client side keeps kill/revive identical across transports and
// instant: the driver flips a set, the next call to the node fails.
class NodeGate final : public net::ShardTransport {
 public:
  explicit NodeGate(net::ShardTransport* inner) : inner_(inner) {}

  void kill(NodeId node) { dead_.insert(node); }
  void revive(NodeId node) { dead_.erase(node); }
  [[nodiscard]] bool is_dead(NodeId node) const {
    return dead_.contains(node);
  }

  [[nodiscard]] Result<std::string> call(std::size_t shard, int attempt,
                                         net::FrameType type,
                                         std::string_view request) override {
    ++stats_.calls;
    if (dead_.contains(static_cast<NodeId>(shard))) {
      ++stats_.connect_refused;  // manifest as the node not answering
      return Status::unavailable("elastic: node is down");
    }
    Result<std::string> reply = inner_->call(shard, attempt, type, request);
    if (reply.ok()) {
      ++stats_.ok;
    } else {
      ++stats_.other_errors;  // inner transport classified the kind
    }
    return reply;
  }

  [[nodiscard]] const char* name() const noexcept override { return "gate"; }
  [[nodiscard]] bool real_time() const noexcept override {
    return inner_->real_time();
  }
  [[nodiscard]] const net::TransportStats& stats() const noexcept override {
    return stats_;
  }

 private:
  net::ShardTransport* inner_;
  std::set<NodeId> dead_;
  net::TransportStats stats_;
};

/// Driver-side view of one partition: its records, its authoritative
/// replica set, and which replicas are known to hold a *consistent*
/// chain (a replica that missed a delta is stale and leaves `holders`
/// — serving it would change decisions).
struct Partition {
  std::uint64_t pid = 0;
  std::size_t index = 0;  ///< position in pid order (attempt-fold key)
  std::vector<linkage::PersonRecord> base;
  std::vector<linkage::PersonRecord> late;
  bool late_delivered = false;
  std::uint32_t delta_count = 0;
  std::vector<NodeId> assigned;
  std::vector<NodeId> holders;

  [[nodiscard]] std::size_t record_count() const noexcept {
    return base.size() + late.size();
  }
};

class ElasticRun {
 public:
  ElasticRun(std::span<const linkage::PersonRecord> left,
             std::span<const linkage::PersonRecord> right,
             const ElasticConfig& config, const ElasticSchedule& schedule)
      : left_(left),
        right_(right),
        config_(config),
        schedule_(schedule),
        ring_(config.ring) {
    if (config_.fault.has_value()) {
      retry_ = config_.fault->retry;
    }
    replication_ = std::max<std::size_t>(1, config_.replication);
    quorum_ = std::clamp<std::size_t>(config_.write_quorum, 1, replication_);
  }

  ElasticResult run();

 private:
  // setup
  void build_partitions();
  void setup_transport();

  // phases
  void write_phase();
  void query_phase();
  void apply_event(const ElasticEvent& event);
  void rebalance(const ElasticEvent& event);
  void migrate(Partition& p, std::vector<NodeId> new_assigned,
               const MigrationKill* kill);
  void deliver_late(Partition& p);
  void query_partition(Partition& p);

  // plumbing
  ReplicaCounters& counters(NodeId node);
  void note_backoff(double delay);
  [[nodiscard]] Result<std::string> call_with_retry(NodeId node,
                                                    const Partition& p,
                                                    std::uint64_t op,
                                                    net::FrameType type,
                                                    const std::string& payload);
  [[nodiscard]] bool install_blob(Partition& p, NodeId node,
                                  std::uint32_t delta_seq,
                                  const std::string& blob, std::uint64_t op);
  [[nodiscard]] Result<std::string> fetch_blob(const Partition& p, NodeId node,
                                               StateFetch::What what,
                                               std::uint32_t index);

  std::span<const linkage::PersonRecord> left_;
  std::span<const linkage::PersonRecord> right_;
  const ElasticConfig& config_;
  const ElasticSchedule& schedule_;

  HashRing ring_;
  u::RetryPolicy retry_;
  std::size_t replication_ = 2;
  std::size_t quorum_ = 1;

  std::unique_ptr<ClusterService> local_service_;
  std::unique_ptr<net::InProcessTransport> local_transport_;
  std::unique_ptr<NodeGate> gate_;

  std::vector<Partition> partitions_;
  std::map<NodeId, ReplicaCounters> counters_;
  std::vector<bool> event_fired_;

  ElasticResult result_;
};

void ElasticRun::build_partitions() {
  std::map<std::uint64_t, Partition> by_pid;
  for (const linkage::PersonRecord& r : left_) {
    const std::uint64_t pid =
        ring_.partition_of(HashRing::key_hash(r.id, config_.ring.seed));
    Partition& p = by_pid[pid];
    p.pid = pid;
    p.base.push_back(r);
  }
  partitions_.reserve(by_pid.size());
  for (auto& [pid, p] : by_pid) {
    // The late split is per partition (tail of its record list), so
    // base + late concatenated is the original partition content —
    // late_fraction changes delivery timing, never decisions.
    const double f = std::clamp(config_.late_fraction, 0.0, 1.0);
    const std::size_t late_count =
        static_cast<std::size_t>(static_cast<double>(p.base.size()) * f);
    if (late_count > 0) {
      p.late.assign(p.base.end() - static_cast<std::ptrdiff_t>(late_count),
                    p.base.end());
      p.base.resize(p.base.size() - late_count);
    }
    p.index = partitions_.size();
    p.assigned = ring_.replicas(pid, replication_);
    partitions_.push_back(std::move(p));
  }
}

void ElasticRun::setup_transport() {
  net::ShardTransport* inner = config_.transport;
  if (inner == nullptr) {
    ClusterServiceOptions options;
    options.storage_faults = config_.storage_faults;
    local_service_ = std::make_unique<ClusterService>(config_.link, right_,
                                                      options);
    std::optional<u::FaultConfig> faults;
    if (config_.fault.has_value()) {
      faults = config_.fault->faults;
    }
    local_transport_ = std::make_unique<net::InProcessTransport>(
        local_service_->handler(), faults);
    inner = local_transport_.get();
  }
  gate_ = std::make_unique<NodeGate>(inner);
}

ReplicaCounters& ElasticRun::counters(NodeId node) {
  ReplicaCounters& c = counters_[node];
  c.node = node;
  return c;
}

void ElasticRun::note_backoff(double delay) {
  result_.backoff_ms += delay;
  if (gate_->real_time() && delay > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(delay));
  }
}

Result<std::string> ElasticRun::call_with_retry(NodeId node,
                                                const Partition& p,
                                                std::uint64_t op,
                                                net::FrameType type,
                                                const std::string& payload) {
  Result<std::string> out = Status::unavailable("elastic: no attempt made");
  const int attempts = retry_.bounded_attempts();
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    out = gate_->call(node, fold_attempt(p.index, op, attempt), type, payload);
    const bool is_write = (op == kOpWrite || op == kOpDelta);
    if (is_write) {
      ++counters(node).write_attempts;
    }
    if (out.ok()) {
      return out;
    }
    ++result_.retries;
    if (is_write) {
      ++counters(node).write_failures;
    }
    if (attempt < attempts) {
      note_backoff(retry_.delay_ms(attempt, jitter_key(p.pid, node, op)));
    }
  }
  return out;
}

bool ElasticRun::install_blob(Partition& p, NodeId node,
                              std::uint32_t delta_seq, const std::string& blob,
                              std::uint64_t op) {
  ReplicaWrite msg;
  msg.pid = p.pid;
  msg.delta_seq = delta_seq;
  msg.blob = blob;
  auto reply = call_with_retry(node, p, op, net::FrameType::kReplicaWrite,
                               encode_replica_write(msg));
  if (reply.ok()) {
    ++result_.write_acks;
  }
  return reply.ok();
}

Result<std::string> ElasticRun::fetch_blob(const Partition& p, NodeId node,
                                           StateFetch::What what,
                                           std::uint32_t index) {
  StateFetch msg;
  msg.pid = p.pid;
  msg.what = what;
  msg.index = index;
  return call_with_retry(node, p, kOpFetch, net::FrameType::kStateFetch,
                         encode_state_fetch(msg));
}

void ElasticRun::write_phase() {
  for (Partition& p : partitions_) {
    const std::string blob = encode_record_list(p.base);
    std::size_t acks = 0;
    for (NodeId node : p.assigned) {
      if (install_blob(p, node, /*delta_seq=*/0, blob, kOpWrite)) {
        p.holders.push_back(node);
        ++acks;
      }
    }
    if (acks < std::min(quorum_, p.assigned.size())) {
      ++result_.write_quorum_failures;
    }
  }
}

void ElasticRun::deliver_late(Partition& p) {
  if (p.late.empty() || p.late_delivered) {
    return;
  }
  const std::uint32_t seq = p.delta_count + 1;
  const std::string blob = encode_record_list(p.late);
  std::vector<NodeId> consistent;
  for (NodeId node : p.holders) {
    if (install_blob(p, node, seq, blob, kOpDelta)) {
      consistent.push_back(node);
    }
    // A holder that missed the delta is stale: serving it would answer
    // with yesterday's partition.  It leaves the consistent set.
  }
  p.holders = std::move(consistent);
  p.late_delivered = true;
  p.delta_count = seq;
}

namespace {

/// Mirrors rebalance progress into the canonical cluster.rebalance.*
/// telemetry family (DESIGN.md §16): one counter per protocol step
/// reached, plus the migration outcome tallies.  Handles are resolved
/// once per process; the step names reuse migration_step_name so a new
/// protocol step cannot go stale here.
void mirror_rebalance_step(MigrationStep step) {
  if (!fbf::telemetry::enabled()) {
    return;
  }
  auto& registry = fbf::telemetry::Registry::global();
  static const std::array<fbf::telemetry::Counter*, kMigrationStepCount>
      by_step = [&registry] {
        std::array<fbf::telemetry::Counter*, kMigrationStepCount> out{};
        for (const MigrationStep s : all_migration_steps()) {
          out[static_cast<std::size_t>(s)] = &registry.counter(
              std::string("cluster.rebalance.step.") +
              migration_step_name(s));
        }
        return out;
      }();
  by_step[static_cast<std::size_t>(step)]->increment();
}

void mirror_rebalance_outcome(bool completed) {
  if (!fbf::telemetry::enabled()) {
    return;
  }
  auto& registry = fbf::telemetry::Registry::global();
  static fbf::telemetry::Counter& done =
      registry.counter("cluster.rebalance.completed");
  static fbf::telemetry::Counter& aborted =
      registry.counter("cluster.rebalance.aborted");
  (completed ? done : aborted).increment();
}

}  // namespace

void ElasticRun::migrate(Partition& p, std::vector<NodeId> new_assigned,
                         const MigrationKill* kill) {
  MigrationStats& mig = result_.migration;
  const std::vector<NodeId> old_holders = p.holders;

  std::vector<NodeId> to_install;
  for (NodeId node : new_assigned) {
    if (std::find(p.holders.begin(), p.holders.end(), node) ==
        p.holders.end()) {
      to_install.push_back(node);
    }
  }

  NodeId source = p.holders.empty() ? NodeId{0} : p.holders.front();
  auto maybe_kill = [&](MigrationStep step) {
    mirror_rebalance_step(step);  // every step entry, kill armed or not
    if (kill != nullptr && kill->step == step) {
      const NodeId victim = kill->victim == MigrationKill::Victim::kSource
                                ? source
                                : (to_install.empty() ? source
                                                      : to_install.front());
      gate_->kill(victim);
      kill = nullptr;  // one shot
    }
  };

  std::vector<NodeId> verified;  // dests holding a verified chain copy
  bool transferred = to_install.empty();  // pure shrink needs no copy
  if (!to_install.empty()) {
    // Snapshot the candidate sources: delta traffic mid-transfer can
    // shrink p.holders (a stale holder leaves), and a candidate that
    // went stale must be skipped, not iterated over.
    const std::vector<NodeId> sources = p.holders;
    bool first_source = true;
    for (NodeId candidate : sources) {
      if (std::find(p.holders.begin(), p.holders.end(), candidate) ==
          p.holders.end()) {
        continue;  // went stale during an earlier round
      }
      source = candidate;
      if (!first_source) {
        ++mig.source_failovers;
      }
      first_source = false;
      verified.clear();

      maybe_kill(MigrationStep::kFetchManifest);
      auto manifest0 = fetch_blob(p, source, StateFetch::What::kManifest, 0);
      if (!manifest0.ok()) {
        continue;  // next source
      }
      maybe_kill(MigrationStep::kFetchBase);
      auto base = fetch_blob(p, source, StateFetch::What::kBase, 0);
      if (!base.ok()) {
        continue;
      }
      maybe_kill(MigrationStep::kInstallBase);
      std::vector<NodeId> installed;
      for (NodeId dest : to_install) {
        // Reset any stale remnant first, then install the fetched bytes
        // verbatim — the dest's rebuilt manifest can only equal the
        // source's if its chain bytes do.
        StateDrop drop{p.pid};
        (void)call_with_retry(dest, p, kOpDrop, net::FrameType::kStateDrop,
                              encode_state_drop(drop));
        if (install_blob(p, dest, /*delta_seq=*/0, base.value(), kOpWrite)) {
          ++mig.base_transfers;
          mig.bytes_moved += base.value().size();
          installed.push_back(dest);
        }
      }
      maybe_kill(MigrationStep::kDeltaTraffic);
      // Live traffic lands mid-transfer: the pending late delta goes to
      // the *current* holders, and the catch-up below ships it onward.
      deliver_late(p);
      if (std::find(p.holders.begin(), p.holders.end(), source) ==
          p.holders.end()) {
        continue;  // source went stale (missed the delta) — restart
      }

      maybe_kill(MigrationStep::kFetchDeltas);
      auto manifest1 = fetch_blob(p, source, StateFetch::What::kManifest, 0);
      if (!manifest1.ok()) {
        continue;
      }
      auto decoded = storage::decode_manifest(manifest1.value());
      if (!decoded.ok()) {
        continue;
      }
      std::vector<std::string> deltas;
      bool fetch_ok = true;
      for (std::uint32_t seq = 1; seq <= decoded->deltas.size(); ++seq) {
        auto delta = fetch_blob(p, source, StateFetch::What::kDelta, seq);
        if (!delta.ok()) {
          fetch_ok = false;
          break;
        }
        deltas.push_back(std::move(delta.value()));
      }
      if (!fetch_ok) {
        continue;
      }
      maybe_kill(MigrationStep::kInstallDeltas);
      std::vector<NodeId> caught_up;
      for (NodeId dest : installed) {
        bool dest_ok = true;
        for (std::uint32_t seq = 1; seq <= deltas.size(); ++seq) {
          if (!install_blob(p, dest, seq, deltas[seq - 1], kOpDelta)) {
            dest_ok = false;
            break;
          }
          ++mig.delta_transfers;
          mig.bytes_moved += deltas[seq - 1].size();
        }
        if (dest_ok) {
          caught_up.push_back(dest);
        }
      }
      maybe_kill(MigrationStep::kVerify);
      for (NodeId dest : caught_up) {
        auto check = fetch_blob(p, dest, StateFetch::What::kManifest, 0);
        if (check.ok() && check.value() == manifest1.value()) {
          verified.push_back(dest);
        }
      }
      transferred = true;
      break;
    }
  } else {
    // Pure shrink: every surviving replica already holds the chain; the
    // delta (if pending) still has to land before ownership flips.
    deliver_late(p);
  }

  maybe_kill(MigrationStep::kHandoff);
  std::vector<NodeId> new_holders;
  for (NodeId node : new_assigned) {
    const bool holds =
        std::find(p.holders.begin(), p.holders.end(), node) !=
            p.holders.end() ||
        std::find(verified.begin(), verified.end(), node) != verified.end();
    if (holds) {
      new_holders.push_back(node);
    }
  }
  if (!transferred || new_holders.empty()) {
    ++mig.aborted;  // old replica set stays authoritative and complete
    mirror_rebalance_outcome(/*completed=*/false);
    return;
  }
  // The atomic flip: driver metadata only, no I/O can fail inside it.
  p.assigned = std::move(new_assigned);
  p.holders = std::move(new_holders);
  ++mig.completed;
  mirror_rebalance_outcome(/*completed=*/true);

  maybe_kill(MigrationStep::kCleanup);
  for (NodeId node : old_holders) {
    if (std::find(p.assigned.begin(), p.assigned.end(), node) !=
        p.assigned.end()) {
      continue;
    }
    StateDrop drop{p.pid};
    auto dropped = call_with_retry(node, p, kOpDrop,
                                   net::FrameType::kStateDrop,
                                   encode_state_drop(drop));
    if (!dropped.ok()) {
      ++mig.orphaned_copies;  // stray bytes, never stray answers
    }
  }
}

void ElasticRun::rebalance(const ElasticEvent& event) {
  const MigrationKill* kill =
      event.kill_during.has_value() ? &*event.kill_during : nullptr;
  for (Partition& p : partitions_) {
    std::vector<NodeId> new_assigned = ring_.replicas(p.pid, replication_);
    if (new_assigned == p.assigned) {
      continue;
    }
    ++result_.migration.partitions_considered;
    migrate(p, std::move(new_assigned), kill);
    kill = nullptr;  // the scripted kill targets the event's first migration
  }
}

void ElasticRun::apply_event(const ElasticEvent& event) {
  ++result_.events_applied;
  switch (event.kind) {
    case ElasticEvent::Kind::kKillNode:
      gate_->kill(event.node);
      break;
    case ElasticEvent::Kind::kReviveNode:
      gate_->revive(event.node);
      break;
    case ElasticEvent::Kind::kAddNode:
      if (ring_.add_node(event.node).ok()) {
        rebalance(event);
      }
      break;
    case ElasticEvent::Kind::kRemoveNode:
      if (ring_.remove_node(event.node).ok()) {
        rebalance(event);
      }
      break;
  }
}

void ElasticRun::query_partition(Partition& p) {
  PartitionReply reply;
  reply.pid = p.pid;
  reply.records = p.record_count();

  const std::string payload = encode_replica_query({p.pid});
  // A partition no replica holds has nobody to retry: it is dropped at
  // once instead of waiting out the backoff schedule.
  const int rounds = p.holders.empty() ? 0 : retry_.bounded_attempts();
  for (int round = 1; round <= rounds && !reply.completed; ++round) {
    for (std::size_t hi = 0; hi < p.holders.size(); ++hi) {
      const NodeId node = p.holders[hi];
      ++counters(node).query_attempts;
      auto raw = gate_->call(node, fold_attempt(p.index, kOpQuery, round),
                             net::FrameType::kReplicaQuery, payload);
      if (raw.ok()) {
        auto decoded = linkage::decode_shard_reply(raw.value());
        if (decoded.ok()) {
          reply.completed = true;
          reply.served_by = node;
          reply.pairs = decoded.value().pairs;
          reply.matches = decoded.value().matches;
          reply.true_positives = decoded.value().true_positives;
          reply.link_ms = decoded.value().link_ms;
          ReplicaCounters& c = counters(node);
          ++c.queries_served;
          c.busy_ms += reply.link_ms;
          if (!p.assigned.empty() && node != p.assigned.front()) {
            ++result_.failovers;  // a non-primary replica answered
          }
          break;
        }
        // An undecodable reply counts as a failed attempt like any other.
      }
      ++counters(node).query_failures;
      ++result_.retries;
    }
    if (!reply.completed && round < rounds) {
      note_backoff(retry_.delay_ms(round, jitter_key(p.pid, 0, kOpQuery)));
    }
  }

  if (reply.completed) {
    result_.total_pairs += reply.pairs;
    result_.total_matches += reply.matches;
    result_.total_true_positives += reply.true_positives;
    result_.sum_ms += reply.link_ms;
  } else {
    ++result_.dropped_partitions;
    result_.dropped_records += reply.records;
    result_.dropped_pairs +=
        static_cast<std::uint64_t>(reply.records) * right_.size();
  }
  result_.partitions.push_back(reply);
}

void ElasticRun::query_phase() {
  event_fired_.assign(schedule_.events.size(), false);
  auto fire_due = [&](std::size_t query_index, bool drain) {
    for (std::size_t e = 0; e < schedule_.events.size(); ++e) {
      if (!event_fired_[e] &&
          (drain || schedule_.events[e].at_query <= query_index)) {
        event_fired_[e] = true;
        apply_event(schedule_.events[e]);
      }
    }
  };

  for (std::size_t qi = 0; qi < partitions_.size(); ++qi) {
    fire_due(qi, /*drain=*/false);
    Partition& p = partitions_[qi];
    deliver_late(p);
    query_partition(p);
  }
  // Events scheduled past the last query still apply (they can matter
  // to migration stats and holder assertions).
  fire_due(partitions_.size(), /*drain=*/true);
}

ElasticResult ElasticRun::run() {
  for (NodeId node : config_.nodes) {
    (void)ring_.add_node(node);
  }
  build_partitions();
  setup_transport();
  write_phase();
  query_phase();

  std::sort(result_.partitions.begin(), result_.partitions.end(),
            [](const PartitionReply& a, const PartitionReply& b) {
              return a.pid < b.pid;
            });
  for (auto& [node, c] : counters_) {
    result_.makespan_ms = std::max(result_.makespan_ms, c.busy_ms);
    result_.replicas.push_back(c);
  }
  return result_;
}

}  // namespace

std::uint64_t ElasticResult::decision_fingerprint() const noexcept {
  std::uint64_t h = 0x9E3779B97F4A7C15ull;
  const auto fold = [&h](std::uint64_t v) {
    h = u::SplitMix64(h ^ v).next();
  };
  for (const PartitionReply& p : partitions) {
    fold(p.pid);
    fold(p.completed ? 1 : 0);
    fold(p.pairs);
    fold(p.matches);
    fold(p.true_positives);
  }
  return h;
}

ElasticResult link_elastic(std::span<const linkage::PersonRecord> left,
                           std::span<const linkage::PersonRecord> right,
                           const ElasticConfig& config,
                           const ElasticSchedule& schedule) {
  return ElasticRun(left, right, config, schedule).run();
}

}  // namespace fbf::cluster
