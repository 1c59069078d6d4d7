// The online match protocol: request/response types + byte codecs
// (DESIGN.md §15).
//
// Three request families cross the wire between fbf::Client and
// serve::MatchService:
//
//   kMatchQuery / kMatchReply   point lookup — one string against the
//                               indexed corpus, or one PersonRecord
//                               against the entity store
//   kIngest / kIngestReply      streaming ingest — record batches or raw
//                               CSV rows appended to the durable store
//   kAdmin / kAdminReply        metrics snapshot + quarantine drain
//
// The request-level types live in namespace fbf (they are the public
// client vocabulary — `fbf::MatchRequest` is what callers build); the
// service-side types live in fbf::serve.  Codecs use util::wire +
// linkage::wire::put_record, same as the snapshot and shard-link
// protocols, so the record layout cannot diverge between durability and
// serving.  Every decode is bounds-checked: truncated or trailing bytes
// come back as kInvalidArgument, never a wild read.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/candidate_pipeline.hpp"
#include "linkage/record.hpp"
#include "telemetry/snapshot.hpp"
#include "util/status.hpp"

namespace fbf {

/// One point lookup.  kString matches `text` against the string corpus
/// through the coalescing batch path; kRecord probes `record` against the
/// entity store through the comparator.
struct MatchRequest {
  enum class Kind : std::uint8_t { kString = 1, kRecord = 2 };
  Kind kind = Kind::kString;
  std::string text;               ///< kString payload
  linkage::PersonRecord record;   ///< kRecord payload
  /// Reply truncation after sorting; clamped to the service's limit.
  std::uint32_t max_matches = 8;
};

/// A point lookup's answer, with the same ladder accounting the batch
/// tools report — coalescing is invisible here: the counters are exactly
/// what this query would have earned running alone.
struct MatchResponse {
  struct Match {
    std::uint32_t id = 0;      ///< corpus id (kString) / record index (kRecord)
    std::uint32_t entity = 0;  ///< entity id (kRecord; 0 for kString)
    double score = 0.0;        ///< comparator score (kRecord; 1.0 for kString)
    std::string value;         ///< matched corpus string (kString; empty else)
  };
  std::vector<Match> matches;
  /// Per-query filter ladder.  kRecord lookups fill the stages the
  /// comparator tracks (candidates_generated / fbf_evaluated /
  /// verify_calls); length_pass and fbf_pass stay 0 there.
  core::PipelineCounters counters;
  std::uint64_t field_comparisons = 0;  ///< kRecord: field pairs scored
  /// Candidates the cascade considered: the store size (kRecord), the
  /// corpus size on the dense route or the generated candidates on the
  /// block-index route (kString).
  std::uint64_t comparisons = 0;
  /// Candidate generator that served the reply ("dense" /
  /// "block-index"): the corpus's for kString, the entity store's for
  /// kRecord.
  std::string generator;
};

}  // namespace fbf

namespace fbf::serve {

/// Streaming ingest: a batch of parsed records, or raw CSV data rows
/// (header-less).  CSV rows that fail the strict parse are quarantined
/// service-side — the batch still commits; see AdminCommand::kDrainQuarantine.
struct IngestRequest {
  enum class Format : std::uint8_t { kRecords = 1, kCsv = 2 };
  Format format = Format::kRecords;
  std::vector<linkage::PersonRecord> records;  ///< kRecords payload
  std::string csv;                             ///< kCsv payload
};

/// Ack for one ingest call.  `seq` is the journal position after the
/// commit — once a client holds it, the batch survives a crash (group-
/// commit window aside; see GroupCommitPolicy).
struct IngestReply {
  std::uint64_t accepted = 0;     ///< records journaled + applied
  std::uint64_t quarantined = 0;  ///< CSV rows parked for triage (this call)
  std::uint64_t seq = 0;          ///< batches_ingested after this commit
  std::uint64_t store_size = 0;
};

/// Admin command byte.  Byte 1 is reserved: it was the fixed-field stats
/// view, old clients may still send it, and it is rejected as unknown —
/// do not reuse it.  kMetrics carries every service metric.
enum class AdminCommand : std::uint8_t {
  kDrainQuarantine = 2,
  /// Full telemetry snapshot: every counter/gauge/histogram the service's
  /// private registry and the process-global registry hold, under the
  /// canonical dotted naming scheme (DESIGN.md §16).
  kMetrics = 3,
};

/// Quarantine drain outcome (AdminCommand::kDrainQuarantine): rows the
/// repair triage fixed and re-ingested — broken down by repair family —
/// vs rows still parked for the operator.
struct DrainReply {
  std::uint64_t repaired = 0;   ///< total re-ingested (sum of families)
  std::uint64_t still_bad = 0;
  std::uint64_t doubled_delimiter = 0;  ///< CsvRepairKind::kDoubledDelimiter
  std::uint64_t shifted_column = 0;     ///< CsvRepairKind::kShiftedColumn
};

/// One admin reply; `command` selects which member is meaningful.
struct AdminReply {
  AdminCommand command = AdminCommand::kMetrics;
  DrainReply drain;
  telemetry::MetricsSnapshot metrics;  ///< kMetrics payload
};

// --- codecs ------------------------------------------------------------

[[nodiscard]] std::string encode_match_request(const MatchRequest& req);
[[nodiscard]] fbf::util::Result<MatchRequest> decode_match_request(
    std::string_view payload);

[[nodiscard]] std::string encode_match_response(const MatchResponse& resp);
[[nodiscard]] fbf::util::Result<MatchResponse> decode_match_response(
    std::string_view payload);

[[nodiscard]] std::string encode_ingest_request(const IngestRequest& req);
[[nodiscard]] fbf::util::Result<IngestRequest> decode_ingest_request(
    std::string_view payload);

[[nodiscard]] std::string encode_ingest_reply(const IngestReply& reply);
[[nodiscard]] fbf::util::Result<IngestReply> decode_ingest_reply(
    std::string_view payload);

[[nodiscard]] std::string encode_admin_request(AdminCommand command);
[[nodiscard]] fbf::util::Result<AdminCommand> decode_admin_request(
    std::string_view payload);

[[nodiscard]] std::string encode_admin_reply(const AdminReply& reply);
[[nodiscard]] fbf::util::Result<AdminReply> decode_admin_reply(
    std::string_view payload);

/// Stable fingerprint of a reply's client-observable content (matches +
/// counters), for transport-equivalence assertions: in-process and TCP
/// backends must produce equal fingerprints for the same request.
[[nodiscard]] std::uint64_t match_response_fingerprint(
    const MatchResponse& resp);

}  // namespace fbf::serve
