#include "serve/client.hpp"

#include <utility>

namespace fbf {

namespace u = fbf::util;

namespace {

/// Transient delivery failures retry; application verdicts do not.
/// kResourceExhausted is deliberately non-retryable here: overload
/// wants caller-side backoff, and a blind immediate retry would pile
/// onto the very queue that just rejected us.
bool retryable(const u::Status& status) noexcept {
  switch (status.code()) {
    case u::StatusCode::kUnavailable:
    case u::StatusCode::kIoError:
    case u::StatusCode::kDataLoss:
      return true;
    default:
      return false;
  }
}

}  // namespace

Client::Client(std::shared_ptr<net::ShardTransport> transport,
               ClientOptions options)
    : transport_(std::move(transport)), options_(options) {
  if (options_.max_attempts < 1) {
    options_.max_attempts = 1;
  }
}

Client Client::in_process(serve::MatchService& service,
                          std::optional<u::FaultConfig> faults,
                          ClientOptions options) {
  return Client(std::make_shared<net::InProcessTransport>(service.handler(),
                                                          std::move(faults)),
                options);
}

u::Result<std::string> Client::call(net::FrameType type,
                                    std::string_view payload) {
  u::Status last = u::Status::unavailable("no attempt made");
  for (int attempt = 1; attempt <= options_.max_attempts; ++attempt) {
    u::Result<std::string> reply =
        transport_->call(options_.shard, attempt, type, payload);
    if (reply.ok() || !retryable(reply.status())) {
      return reply;
    }
    last = reply.status();
  }
  return last;
}

u::Result<MatchResponse> Client::match(const MatchRequest& request) {
  u::Result<std::string> reply = call(net::FrameType::kMatchQuery,
                                      serve::encode_match_request(request));
  if (!reply.ok()) {
    return reply.status();
  }
  return serve::decode_match_response(*reply);
}

u::Result<MatchResponse> Client::match_string(std::string_view text,
                                              std::uint32_t max_matches) {
  MatchRequest request;
  request.kind = MatchRequest::Kind::kString;
  request.text = text;
  request.max_matches = max_matches;
  return match(request);
}

u::Result<MatchResponse> Client::match_record(
    const linkage::PersonRecord& record, std::uint32_t max_matches) {
  MatchRequest request;
  request.kind = MatchRequest::Kind::kRecord;
  request.record = record;
  request.max_matches = max_matches;
  return match(request);
}

u::Result<serve::IngestReply> Client::ingest(
    std::span<const linkage::PersonRecord> records) {
  serve::IngestRequest request;
  request.format = serve::IngestRequest::Format::kRecords;
  request.records.assign(records.begin(), records.end());
  u::Result<std::string> reply =
      call(net::FrameType::kIngest, serve::encode_ingest_request(request));
  if (!reply.ok()) {
    return reply.status();
  }
  return serve::decode_ingest_reply(*reply);
}

u::Result<serve::IngestReply> Client::ingest_csv(std::string_view csv) {
  serve::IngestRequest request;
  request.format = serve::IngestRequest::Format::kCsv;
  request.csv = csv;
  u::Result<std::string> reply =
      call(net::FrameType::kIngest, serve::encode_ingest_request(request));
  if (!reply.ok()) {
    return reply.status();
  }
  return serve::decode_ingest_reply(*reply);
}

u::Result<telemetry::MetricsSnapshot> Client::metrics() {
  u::Result<std::string> reply =
      call(net::FrameType::kAdmin,
           serve::encode_admin_request(serve::AdminCommand::kMetrics));
  if (!reply.ok()) {
    return reply.status();
  }
  u::Result<serve::AdminReply> decoded = serve::decode_admin_reply(*reply);
  if (!decoded.ok()) {
    return decoded.status();
  }
  return std::move(decoded->metrics);
}

u::Result<serve::DrainReply> Client::drain_quarantine() {
  u::Result<std::string> reply = call(
      net::FrameType::kAdmin,
      serve::encode_admin_request(serve::AdminCommand::kDrainQuarantine));
  if (!reply.ok()) {
    return reply.status();
  }
  u::Result<serve::AdminReply> decoded = serve::decode_admin_reply(*reply);
  if (!decoded.ok()) {
    return decoded.status();
  }
  return decoded->drain;
}

u::Status Client::ping() {
  return call(net::FrameType::kPing, {}).status();
}

}  // namespace fbf
