// MatchService: the online match daemon's request processor
// (DESIGN.md §15).
//
// One MatchService instance owns the serving state — an indexed string
// corpus (core::MatchCorpus) behind a BatchCoalescer, a durable entity
// store (linkage::DurableEntityStore), and a CSV quarantine — and
// processes the serve protocol's three request families:
//
//   kMatchQuery  string lookups ride the coalescer into batched
//                corpus sweeps; record lookups probe the entity
//                store under the comparator.  Replies carry per-query
//                ladder counters identical to a solo run.
//   kIngest      record batches and raw CSV rows append to the durable
//                store (write-ahead journaled, group-commit policy).
//                Damaged CSV rows quarantine intact; the batch commits.
//   kAdmin       metrics snapshot (full telemetry registry dump) and
//                quarantine drain (doubled-delimiter + shifted-column
//                triage, re-ingest of repaired rows broken down by
//                family).
//
// Observability (DESIGN.md §16): the service owns a PRIVATE
// telemetry::Registry — the source of truth for serve.* counters
// (queries / ingests / overloaded), per-family latency histograms
// (serve.query / serve.ingest / serve.admin) and the quarantine.repaired
// counters — updated unconditionally, since these ARE the service stats,
// not optional mirroring.  metrics_snapshot() captures it, merges the
// process-global registry (pipeline.*, net.*, join.*, cluster.*) and is
// what the kMetrics admin command ships.
//
// Tracing: handle() installs the request's trace id (FrameContext.trace,
// derived client-side) as the thread's current trace and records one
// serve.<family> span per traced request; the coalescer picks the id up
// via telemetry::current_trace() so batch spans attribute correctly.
//
// Locking: the service owns no thread for string queries — the
// coalescer's leader runs each batch sweep on its request thread.  The
// sweep, reply assembly and the metrics read share corpus_mu_; only
// index_strings takes it exclusively.  Answered followers therefore
// assemble their replies while the next leader sweeps, and return to
// the queue in time to fill the next batch.
//
// handler() exposes the service as a net::ShardHandler, so the same
// instance backs an InProcessTransport (deterministic reference) and a
// ShardServer over real loopback sockets — the transport-equivalence
// property the client tests assert.  Overload (the service-wide in-flight
// budget, the one admission check) surfaces as kResourceExhausted, which
// the TCP server maps to a kOverloaded frame.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/corpus.hpp"
#include "core/query_options.hpp"
#include "linkage/comparator.hpp"
#include "linkage/csv_io.hpp"
#include "linkage/snapshot.hpp"
#include "net/transport.hpp"
#include "serve/coalescer.hpp"
#include "serve/protocol.hpp"
#include "storage/backend.hpp"
#include "telemetry/snapshot.hpp"
#include "telemetry/telemetry.hpp"
#include "util/status.hpp"

namespace fbf::serve {

struct ServiceOptions {
  /// String-corpus query knobs (method, k, field layout); its exec
  /// policy also runs the entity store.
  core::QueryOptions query;
  /// Record comparator for entity-store probes and ingest.
  linkage::ComparatorConfig comparator;
  /// Durability (checkpoint cadence, group commit) for the entity store.
  linkage::DurabilityPolicy durability;
  CoalescerOptions coalescer;
  /// Hard cap on per-request max_matches (a client asking for more gets
  /// this many).
  std::uint32_t max_matches_limit = 256;
  /// Service-wide concurrent-request budget across all request families;
  /// beyond it handle() fails fast with kResourceExhausted.
  std::size_t max_inflight = 64;

  /// Serves through the block index by default (query.exec.generator =
  /// kBlockIndex): string queries once MatchCorpus's background index is
  /// built, record probes and ingests on the entity store's weight cover.
  /// Both apply their own soundness gates; the entity store takes
  /// query.exec whole (threads and generator).
  ServiceOptions()
      : comparator(linkage::make_point_threshold_config(
            linkage::FieldStrategy::kFpdl)) {
    query.exec.generator = core::GeneratorKind::kBlockIndex;
  }
};

class MatchService {
 public:
  MatchService(ServiceOptions options,
               std::shared_ptr<storage::StorageBackend> backend);
  ~MatchService();

  MatchService(const MatchService&) = delete;
  MatchService& operator=(const MatchService&) = delete;

  /// Rebuilds the entity store from the backend (manifest -> base ->
  /// deltas -> journal tail).  Call before serving when the backend may
  /// hold state.
  [[nodiscard]] fbf::util::Result<linkage::RecoveryReport> recover();

  /// Seeds / extends the string corpus (append-only).
  void index_strings(std::span<const std::string> values);

  /// Processes one request payload.  kPing answers with an empty pong.
  [[nodiscard]] fbf::util::Result<std::string> handle(
      const net::FrameContext& ctx, std::string_view payload);

  /// The service as a transport handler (same instance behind in-process
  /// and TCP transports).
  [[nodiscard]] net::ShardHandler handler() {
    return [this](const net::FrameContext& ctx, std::string_view payload) {
      return handle(ctx, payload);
    };
  }

  /// Stops the coalescer: queued queries fail kUnavailable, a running
  /// batch finishes first.  The destructor calls this; explicit for
  /// orderly daemon shutdown.
  void stop();

  /// Test hook: kill -9 at this instant (forwards to
  /// DurableEntityStore::simulate_crash).  Further ingests fail; recover
  /// through a fresh service over the same backend.
  void simulate_crash();

  /// Full metrics snapshot: the service's private registry (serve.*,
  /// quarantine.*) with live size gauges, merged with the process-global
  /// registry (pipeline.*, net.*, join.*, cluster.*).  The kMetrics
  /// admin command ships exactly this.
  [[nodiscard]] telemetry::MetricsSnapshot metrics_snapshot() const;

  [[nodiscard]] std::size_t quarantine_size() const;
  [[nodiscard]] const core::MatchCorpus& corpus() const noexcept {
    return corpus_;
  }
  [[nodiscard]] const linkage::DurableEntityStore& durable_store()
      const noexcept {
    return store_;
  }

 private:
  /// Cached handles into registry_ (stable for the registry's lifetime),
  /// so the request path never takes the registry lookup mutex.
  struct ServeMetrics {
    telemetry::Counter& queries;
    telemetry::Counter& ingests;
    telemetry::Counter& overloaded;
    telemetry::Counter& repaired_doubled;
    telemetry::Counter& repaired_shifted;
    telemetry::Histogram& query_ms;
    telemetry::Histogram& ingest_ms;
    telemetry::Histogram& admin_ms;
  };

  [[nodiscard]] fbf::util::Result<std::string> handle_match(
      std::string_view payload);
  [[nodiscard]] fbf::util::Result<std::string> handle_ingest(
      std::string_view payload);
  [[nodiscard]] fbf::util::Result<std::string> handle_admin(
      std::string_view payload);
  [[nodiscard]] MatchResponse match_string(const MatchRequest& req,
                                           core::CorpusResult result) const;
  [[nodiscard]] MatchResponse match_record(const MatchRequest& req);

  ServiceOptions options_;
  core::MatchCorpus corpus_;
  /// Guards corpus_: shared by the batch sweep, reply assembly and the
  /// metrics read; exclusive for appends.
  mutable std::shared_mutex corpus_mu_;
  linkage::DurableEntityStore store_;
  mutable std::mutex store_mu_;   ///< guards store_ + quarantine_
  std::vector<fbf::util::CsvRow> quarantine_;
  std::optional<BatchCoalescer> coalescer_;

  std::atomic<std::size_t> inflight_{0};

  /// Source of truth for the service's own metrics.  Mutable: snapshot
  /// paths refresh size gauges from a const context.
  mutable telemetry::Registry registry_;
  ServeMetrics metrics_;
};

}  // namespace fbf::serve
