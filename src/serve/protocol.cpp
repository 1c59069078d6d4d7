#include "serve/protocol.hpp"

#include "linkage/record_codec.hpp"
#include "util/rng.hpp"
#include "util/wire.hpp"

namespace fbf::serve {

namespace u = fbf::util;
namespace w = fbf::util::wire;
namespace lw = fbf::linkage::wire;

namespace {

u::Status truncated(const char* what) {
  return u::Status::invalid_argument(std::string("truncated or trailing ") +
                                     what + " payload");
}

void put_counters(std::string& out, const core::PipelineCounters& c) {
  w::put<std::uint64_t>(out, c.candidates_generated);
  w::put<std::uint64_t>(out, c.length_pass);
  w::put<std::uint64_t>(out, c.fbf_evaluated);
  w::put<std::uint64_t>(out, c.fbf_pass);
  w::put<std::uint64_t>(out, c.verify_calls);
}

bool get_counters(w::Reader& in, core::PipelineCounters& c) {
  return in.get(c.candidates_generated) && in.get(c.length_pass) &&
         in.get(c.fbf_evaluated) && in.get(c.fbf_pass) &&
         in.get(c.verify_calls);
}

}  // namespace

std::string encode_match_request(const MatchRequest& req) {
  std::string out;
  w::put<std::uint8_t>(out, static_cast<std::uint8_t>(req.kind));
  w::put<std::uint32_t>(out, req.max_matches);
  if (req.kind == MatchRequest::Kind::kString) {
    w::put_string(out, req.text);
  } else {
    lw::put_record(out, req.record);
  }
  return out;
}

u::Result<MatchRequest> decode_match_request(std::string_view payload) {
  w::Reader in{payload};
  MatchRequest req;
  std::uint8_t kind = 0;
  if (!in.get(kind) || !in.get(req.max_matches)) {
    return truncated("match request");
  }
  switch (kind) {
    case static_cast<std::uint8_t>(MatchRequest::Kind::kString):
      req.kind = MatchRequest::Kind::kString;
      if (!in.get_string(req.text)) {
        return truncated("match request");
      }
      break;
    case static_cast<std::uint8_t>(MatchRequest::Kind::kRecord):
      req.kind = MatchRequest::Kind::kRecord;
      if (!lw::get_record(in, req.record)) {
        return truncated("match request");
      }
      break;
    default:
      return u::Status::invalid_argument("unknown match request kind " +
                                         std::to_string(kind));
  }
  if (!in.done()) {
    return truncated("match request");
  }
  return req;
}

std::string encode_match_response(const MatchResponse& resp) {
  std::string out;
  put_counters(out, resp.counters);
  w::put<std::uint64_t>(out, resp.field_comparisons);
  w::put<std::uint64_t>(out, resp.comparisons);
  w::put_string(out, resp.generator);
  w::put<std::uint32_t>(out, static_cast<std::uint32_t>(resp.matches.size()));
  for (const MatchResponse::Match& m : resp.matches) {
    w::put<std::uint32_t>(out, m.id);
    w::put<std::uint32_t>(out, m.entity);
    w::put<double>(out, m.score);
    w::put_string(out, m.value);
  }
  return out;
}

u::Result<MatchResponse> decode_match_response(std::string_view payload) {
  w::Reader in{payload};
  MatchResponse resp;
  std::uint32_t n = 0;
  if (!get_counters(in, resp.counters) || !in.get(resp.field_comparisons) ||
      !in.get(resp.comparisons) || !in.get_string(resp.generator) ||
      !in.get(n)) {
    return truncated("match response");
  }
  resp.matches.resize(n);
  for (MatchResponse::Match& m : resp.matches) {
    if (!in.get(m.id) || !in.get(m.entity) || !in.get(m.score) ||
        !in.get_string(m.value)) {
      return truncated("match response");
    }
  }
  if (!in.done()) {
    return truncated("match response");
  }
  return resp;
}

std::string encode_ingest_request(const IngestRequest& req) {
  std::string out;
  w::put<std::uint8_t>(out, static_cast<std::uint8_t>(req.format));
  if (req.format == IngestRequest::Format::kRecords) {
    w::put<std::uint32_t>(out, static_cast<std::uint32_t>(req.records.size()));
    for (const linkage::PersonRecord& r : req.records) {
      lw::put_record(out, r);
    }
  } else {
    w::put_string(out, req.csv);
  }
  return out;
}

u::Result<IngestRequest> decode_ingest_request(std::string_view payload) {
  w::Reader in{payload};
  IngestRequest req;
  std::uint8_t format = 0;
  if (!in.get(format)) {
    return truncated("ingest request");
  }
  switch (format) {
    case static_cast<std::uint8_t>(IngestRequest::Format::kRecords): {
      req.format = IngestRequest::Format::kRecords;
      std::uint32_t n = 0;
      if (!in.get(n)) {
        return truncated("ingest request");
      }
      req.records.resize(n);
      for (linkage::PersonRecord& r : req.records) {
        if (!lw::get_record(in, r)) {
          return truncated("ingest request");
        }
      }
      break;
    }
    case static_cast<std::uint8_t>(IngestRequest::Format::kCsv):
      req.format = IngestRequest::Format::kCsv;
      if (!in.get_string(req.csv)) {
        return truncated("ingest request");
      }
      break;
    default:
      return u::Status::invalid_argument("unknown ingest format " +
                                         std::to_string(format));
  }
  if (!in.done()) {
    return truncated("ingest request");
  }
  return req;
}

std::string encode_ingest_reply(const IngestReply& reply) {
  std::string out;
  w::put<std::uint64_t>(out, reply.accepted);
  w::put<std::uint64_t>(out, reply.quarantined);
  w::put<std::uint64_t>(out, reply.seq);
  w::put<std::uint64_t>(out, reply.store_size);
  return out;
}

u::Result<IngestReply> decode_ingest_reply(std::string_view payload) {
  w::Reader in{payload};
  IngestReply reply;
  if (!in.get(reply.accepted) || !in.get(reply.quarantined) ||
      !in.get(reply.seq) || !in.get(reply.store_size) || !in.done()) {
    return truncated("ingest reply");
  }
  return reply;
}

std::string encode_admin_request(AdminCommand command) {
  std::string out;
  w::put<std::uint8_t>(out, static_cast<std::uint8_t>(command));
  return out;
}

u::Result<AdminCommand> decode_admin_request(std::string_view payload) {
  w::Reader in{payload};
  std::uint8_t command = 0;
  if (!in.get(command) || !in.done()) {
    return truncated("admin request");
  }
  switch (command) {
    case static_cast<std::uint8_t>(AdminCommand::kDrainQuarantine):
      return AdminCommand::kDrainQuarantine;
    case static_cast<std::uint8_t>(AdminCommand::kMetrics):
      return AdminCommand::kMetrics;
    default:
      return u::Status::invalid_argument("unknown admin command " +
                                         std::to_string(command));
  }
}

std::string encode_admin_reply(const AdminReply& reply) {
  std::string out;
  w::put<std::uint8_t>(out, static_cast<std::uint8_t>(reply.command));
  w::put<std::uint64_t>(out, reply.drain.repaired);
  w::put<std::uint64_t>(out, reply.drain.still_bad);
  w::put<std::uint64_t>(out, reply.drain.doubled_delimiter);
  w::put<std::uint64_t>(out, reply.drain.shifted_column);
  w::put_string(out, telemetry::encode_metrics_snapshot(reply.metrics));
  return out;
}

u::Result<AdminReply> decode_admin_reply(std::string_view payload) {
  w::Reader in{payload};
  AdminReply reply;
  std::uint8_t command = 0;
  if (!in.get(command)) {
    return truncated("admin reply");
  }
  reply.command = static_cast<AdminCommand>(command);
  if (!in.get(reply.drain.repaired) || !in.get(reply.drain.still_bad) ||
      !in.get(reply.drain.doubled_delimiter) ||
      !in.get(reply.drain.shifted_column)) {
    return truncated("admin reply");
  }
  std::string metrics;
  if (!in.get_string(metrics) || !in.done()) {
    return truncated("admin reply");
  }
  auto snapshot = telemetry::decode_metrics_snapshot(metrics);
  if (!snapshot.ok()) {
    return snapshot.status();
  }
  reply.metrics = std::move(snapshot.value());
  return reply;
}

std::uint64_t match_response_fingerprint(const MatchResponse& resp) {
  // Hash the canonical encoding minus nothing: the encoded reply IS the
  // client-observable content, so transports that differ in any match,
  // counter or score produce different fingerprints.
  return u::fnv1a64(encode_match_response(resp));
}

}  // namespace fbf::serve
