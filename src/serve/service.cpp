#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "net/frame.hpp"
#include "util/csv.hpp"

namespace fbf::serve {

namespace u = fbf::util;

namespace {

/// Decrements the in-flight tally on every exit path.
class InflightGuard {
 public:
  explicit InflightGuard(std::atomic<std::size_t>& count) : count_(count) {}
  ~InflightGuard() { count_.fetch_sub(1, std::memory_order_relaxed); }
  InflightGuard(const InflightGuard&) = delete;
  InflightGuard& operator=(const InflightGuard&) = delete;

 private:
  std::atomic<std::size_t>& count_;
};

}  // namespace

MatchService::MatchService(ServiceOptions options,
                           std::shared_ptr<storage::StorageBackend> backend)
    : options_(std::move(options)),
      corpus_(options_.query),
      store_(options_.comparator, std::move(backend), options_.durability,
             linkage::EntityStoreOptions{options_.query.exec}),
      metrics_{registry_.counter("serve.queries"),
               registry_.counter("serve.ingests"),
               registry_.counter("serve.overloaded"),
               registry_.counter("quarantine.repaired.doubled_delimiter"),
               registry_.counter("quarantine.repaired.shifted_column"),
               registry_.histogram("serve.query"),
               registry_.histogram("serve.ingest"),
               registry_.histogram("serve.admin")} {
  coalescer_.emplace(
      [this](std::span<const std::string> queries) {
        const std::shared_lock<std::shared_mutex> lock(corpus_mu_);
        return corpus_.query_batch(queries);
      },
      options_.coalescer);
}

MatchService::~MatchService() { stop(); }

void MatchService::stop() {
  if (coalescer_.has_value()) {
    coalescer_->stop();
  }
}

void MatchService::simulate_crash() {
  std::lock_guard<std::mutex> lock(store_mu_);
  store_.simulate_crash();
}

u::Result<linkage::RecoveryReport> MatchService::recover() {
  std::lock_guard<std::mutex> lock(store_mu_);
  return store_.recover();
}

void MatchService::index_strings(std::span<const std::string> values) {
  const std::unique_lock<std::shared_mutex> lock(corpus_mu_);
  corpus_.append(values);
}

u::Result<std::string> MatchService::handle(const net::FrameContext& ctx,
                                            std::string_view payload) {
  // Service-wide admission: fail fast once max_inflight requests are in
  // the building.  The guard spans decode + work so a slow ingest counts
  // against the budget exactly like a slow query.
  const std::size_t inflight =
      inflight_.fetch_add(1, std::memory_order_relaxed);
  InflightGuard guard(inflight_);
  if (inflight >= options_.max_inflight) {
    metrics_.overloaded.increment();
    return u::Status::resource_exhausted(
        "service at capacity (" + std::to_string(inflight) + " in flight)");
  }
  if (ctx.type == net::FrameType::kPing) {
    return std::string{};
  }
  // Install the request's trace for everything below — layers with no
  // trace parameter of their own (the coalescer) read it back via
  // telemetry::current_trace().
  const telemetry::ScopedTrace scoped(ctx.trace);
  telemetry::Histogram* family = nullptr;
  const char* span_name = nullptr;
  const auto start = std::chrono::steady_clock::now();
  u::Result<std::string> reply = u::Status::invalid_argument(
      std::string("match service cannot handle frame type ") +
      net::frame_type_name(ctx.type));
  switch (ctx.type) {
    case net::FrameType::kMatchQuery:
      family = &metrics_.query_ms;
      span_name = "serve.query";
      reply = handle_match(payload);
      break;
    case net::FrameType::kIngest:
      family = &metrics_.ingest_ms;
      span_name = "serve.ingest";
      reply = handle_ingest(payload);
      break;
    case net::FrameType::kAdmin:
      family = &metrics_.admin_ms;
      span_name = "serve.admin";
      reply = handle_admin(payload);
      break;
    default:
      return reply;
  }
  if (reply.ok()) {
    family->record(std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count());
  }
  if (telemetry::trace_enabled() && ctx.trace != 0) {
    telemetry::SpanRecord span;
    span.trace = ctx.trace;
    span.name = span_name;
    span.shard = ctx.shard;
    span.attempt = ctx.attempt;
    span.ok = reply.ok();
    telemetry::Registry::global().record_span(std::move(span));
  }
  return reply;
}

u::Result<std::string> MatchService::handle_match(std::string_view payload) {
  u::Result<MatchRequest> req = decode_match_request(payload);
  if (!req.ok()) {
    return req.status();
  }
  MatchResponse resp;
  if (req->kind == MatchRequest::Kind::kString) {
    u::Result<core::CorpusResult> result = coalescer_->submit(req->text);
    if (!result.ok()) {
      return result.status();  // the coalescer stopped
    }
    resp = match_string(*req, std::move(result.value()));
  } else {
    resp = match_record(*req);
  }
  metrics_.queries.increment();
  return encode_match_response(resp);
}

MatchResponse MatchService::match_string(const MatchRequest& req,
                                         core::CorpusResult result) const {
  MatchResponse resp;
  resp.counters = result.counters;
  std::uint32_t limit = options_.max_matches_limit;
  if (req.max_matches != 0) {
    limit = std::min(limit, req.max_matches);
  }
  if (result.matches.size() > limit) {
    result.matches.resize(limit);
  }
  resp.comparisons = result.counters.candidates_generated;
  resp.generator = core::generator_name(result.generator);
  const std::shared_lock<std::shared_mutex> lock(corpus_mu_);
  resp.matches.reserve(result.matches.size());
  for (const std::uint32_t id : result.matches) {
    resp.matches.push_back({id, 0, 1.0, corpus_.value(id)});
  }
  return resp;
}

MatchResponse MatchService::match_record(const MatchRequest& req) {
  std::uint32_t limit = options_.max_matches_limit;
  if (req.max_matches != 0) {
    limit = std::min(limit, req.max_matches);
  }
  std::lock_guard<std::mutex> lock(store_mu_);
  const linkage::EntityStore::ProbeResult probe =
      store_.store().probe(req.record, limit);
  MatchResponse resp;
  resp.counters.candidates_generated = probe.counters.candidates_generated;
  resp.counters.fbf_evaluated = probe.counters.fbf_evaluations;
  resp.counters.verify_calls = probe.counters.verify_calls;
  resp.field_comparisons = probe.counters.field_comparisons;
  resp.comparisons = probe.comparisons;
  resp.generator = core::generator_name(store_.store().generator());
  resp.matches.reserve(probe.matches.size());
  for (const linkage::EntityStore::ProbeMatch& m : probe.matches) {
    resp.matches.push_back({m.record_index, m.entity_id, m.score, {}});
  }
  return resp;
}

u::Result<std::string> MatchService::handle_ingest(std::string_view payload) {
  u::Result<IngestRequest> req = decode_ingest_request(payload);
  if (!req.ok()) {
    return req.status();
  }
  IngestReply reply;
  std::lock_guard<std::mutex> lock(store_mu_);
  if (req->format == IngestRequest::Format::kRecords) {
    if (!req->records.empty()) {
      u::Result<linkage::IngestStats> stats = store_.ingest(req->records);
      if (!stats.ok()) {
        return stats.status();
      }
    }
    reply.accepted = req->records.size();
  } else {
    // Strict row parse: a damaged row quarantines INTACT (no auto-repair
    // here — triage runs when the operator drains), and never blocks the
    // clean rows around it from committing.
    std::istringstream in(req->csv);
    u::CsvRowReader reader(in);
    std::vector<linkage::PersonRecord> batch;
    while (auto row = reader.next()) {
      u::Result<linkage::PersonRecord> parsed =
          linkage::parse_person_csv_row(*row);
      if (parsed.ok()) {
        batch.push_back(std::move(parsed.value()));
      } else {
        quarantine_.push_back(std::move(*row));
        ++reply.quarantined;
      }
    }
    if (!batch.empty()) {
      u::Result<linkage::IngestStats> stats = store_.ingest(batch);
      if (!stats.ok()) {
        return stats.status();
      }
    }
    reply.accepted = batch.size();
  }
  reply.seq = store_.batches_ingested();
  reply.store_size = store_.store().size();
  metrics_.ingests.increment();
  return encode_ingest_reply(reply);
}

u::Result<std::string> MatchService::handle_admin(std::string_view payload) {
  u::Result<AdminCommand> command = decode_admin_request(payload);
  if (!command.ok()) {
    return command.status();
  }
  AdminReply reply;
  reply.command = *command;
  if (*command == AdminCommand::kMetrics) {
    reply.metrics = metrics_snapshot();
    return encode_admin_reply(reply);
  }
  // Quarantine drain: run the repair triage (doubled-delimiter, then
  // shifted-column) over every parked row, re-ingest the repairs as one
  // journaled batch, keep the rest parked for the operator.
  std::lock_guard<std::mutex> lock(store_mu_);
  std::vector<linkage::PersonRecord> repaired;
  std::vector<u::CsvRow> still_bad;
  std::uint64_t doubled = 0;
  std::uint64_t shifted = 0;
  for (u::CsvRow& row : quarantine_) {
    linkage::PersonRecord r;
    switch (linkage::repair_person_csv_row(row, r)) {
      case linkage::CsvRepairKind::kDoubledDelimiter:
        ++doubled;
        repaired.push_back(std::move(r));
        break;
      case linkage::CsvRepairKind::kShiftedColumn:
        ++shifted;
        repaired.push_back(std::move(r));
        break;
      case linkage::CsvRepairKind::kNone:
        still_bad.push_back(std::move(row));
        break;
    }
  }
  if (!repaired.empty()) {
    u::Result<linkage::IngestStats> stats = store_.ingest(repaired);
    if (!stats.ok()) {
      return stats.status();  // quarantine unchanged: nothing was lost
    }
  }
  // Counters move only after the re-ingest committed: a failed drain
  // leaves both the quarantine and the tallies untouched.
  metrics_.repaired_doubled.add(doubled);
  metrics_.repaired_shifted.add(shifted);
  reply.drain.repaired = repaired.size();
  reply.drain.still_bad = still_bad.size();
  reply.drain.doubled_delimiter = doubled;
  reply.drain.shifted_column = shifted;
  quarantine_ = std::move(still_bad);
  return encode_admin_reply(reply);
}

telemetry::MetricsSnapshot MatchService::metrics_snapshot() const {
  // Refresh the size gauges, then capture.  Gauges are set-at-snapshot:
  // they mirror sizes the store/corpus own, rather than double-counting
  // them into the registry on every mutation path.
  {
    std::lock_guard<std::mutex> lock(store_mu_);
    registry_.gauge("serve.store_size")
        .set(static_cast<std::int64_t>(store_.store().size()));
    registry_.gauge("serve.entity_count")
        .set(static_cast<std::int64_t>(store_.store().entity_count()));
    registry_.gauge("serve.quarantined")
        .set(static_cast<std::int64_t>(quarantine_.size()));
  }
  std::string kernel;
  {
    const std::shared_lock<std::shared_mutex> lock(corpus_mu_);
    registry_.gauge("serve.corpus_size")
        .set(static_cast<std::int64_t>(corpus_.size()));
    registry_.gauge("corpus.indexed_rows")
        .set(static_cast<std::int64_t>(corpus_.indexed_rows()));
    kernel = corpus_.kernel_name();
  }
  if (coalescer_.has_value()) {
    const CoalescerStats cs = coalescer_->stats();
    registry_.gauge("serve.batch.batches")
        .set(static_cast<std::int64_t>(cs.batches));
    registry_.gauge("serve.batch.queries")
        .set(static_cast<std::int64_t>(cs.queries));
    registry_.gauge("serve.batch.coalesced")
        .set(static_cast<std::int64_t>(cs.coalesced));
    registry_.gauge("serve.batch.max")
        .set(static_cast<std::int64_t>(cs.max_batch));
  }
  telemetry::MetricsSnapshot snap = telemetry::capture(registry_);
  snap.info.emplace_back("serve.kernel", std::move(kernel));
  telemetry::merge_into(snap, telemetry::capture(telemetry::Registry::global()));
  return snap;
}

std::size_t MatchService::quarantine_size() const {
  std::lock_guard<std::mutex> lock(store_mu_);
  return quarantine_.size();
}

}  // namespace fbf::serve
