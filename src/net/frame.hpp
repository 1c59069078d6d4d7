// Length-prefixed, checksummed frame codec for the shard link protocol.
//
// Every message on a shard connection is one frame:
//
//   magic   u32   "FBFW" — protocol marker
//   type    u16   FrameType
//   ext     u16   extension block byte length (0 = none; was reserved)
//   shard   u32   routing context: which logical shard worker
//   attempt u32   routing context: the driver's retry attempt (1-based)
//   length  u32   payload byte count (bounded by kMaxFramePayloadBytes)
//   check   u64   FNV-1a of ext block + payload, seeded by the header
//   ext block  ext bytes (between header and payload)
//   payload length bytes
//
// The extension block is a TLV sequence — tag u8, value length u8, value
// bytes — carrying optional per-request context; today tag 0x01 is the
// u64 telemetry trace id (telemetry::derive_trace_id).  Decoders SKIP
// unknown tags, so new extension tags never break an old peer, and a
// frame with an empty extension block is byte-identical to the
// pre-extension encoding (the checksum seed folds the ext length in,
// which is a no-op at zero).  Frames are only stamped with an extension
// when telemetry tracing is on.
//
// The checksum seed folds in type/shard/attempt/length/ext-length, so a
// bit flip anywhere in the frame — header, extension or payload — fails
// verification.  The decoder is incremental: feed it the receive buffer
// as bytes arrive and it reports "need more", one complete frame, or
// corruption.  A frame is never trusted until the checksum passes; a
// lying length field is rejected before any allocation larger than the
// bound.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace fbf::net {

inline constexpr std::uint32_t kFrameMagic = 0x57464246u;  // "FBFW"
inline constexpr std::size_t kFrameHeaderBytes = 28;
/// Extension blocks carry a handful of small TLVs (a trace id is 10
/// bytes); anything bigger is a corrupt length, not a real extension.
inline constexpr std::size_t kMaxFrameExtensionBytes = 64;
/// Extension tag: u64 telemetry trace id (value length 8).
inline constexpr std::uint8_t kFrameExtTraceId = 0x01;
/// A replica write ships one partition of demographic records; even
/// paper-scale runs are a few MB.  Anything above this bound is a corrupt
/// or hostile length field, not a real message.
inline constexpr std::uint32_t kMaxFramePayloadBytes = 1u << 26;

enum class FrameType : std::uint16_t {
  kLinkRequest = 1,  ///< retired partition link request; value kept
  kLinkReply = 2,    ///< encoded ShardReply (server -> client)
  kError = 3,        ///< status code + message (server -> client)
  kPing = 4,         ///< liveness probe (client -> server)
  kPong = 5,         ///< liveness answer (server -> client)
  // Elastic cluster protocol (src/cluster): replica state management.
  kReplicaWrite = 6,  ///< install a partition base/delta on one replica
  kReplicaQuery = 7,  ///< link a stored partition against the broadcast right
  kStateFetch = 8,    ///< read one migration blob (manifest/base/delta)
  kStateDrop = 9,     ///< drop a partition's state after ownership handoff
  // Online match service protocol (src/serve): point queries + ingest.
  kMatchQuery = 10,  ///< one point lookup (client -> server)
  kMatchReply = 11,  ///< matches + ladder counters (server -> client)
  kIngest = 12,      ///< records to append into the durable store
  kIngestReply = 13, ///< acknowledged sequence number (server -> client)
  kAdmin = 14,       ///< stats / quarantine-drain command
  kAdminReply = 15,  ///< encoded admin answer (server -> client)
  kOverloaded = 16,  ///< admission control rejected the request; retry later
};

[[nodiscard]] const char* frame_type_name(FrameType type) noexcept;

/// The success reply type paired with a request type (kLinkRequest ->
/// kLinkReply, kMatchQuery -> kMatchReply, ...).  Request types without a
/// dedicated reply keep the historical kLinkReply framing.
[[nodiscard]] FrameType reply_frame_type(FrameType request) noexcept;

/// Routing context carried by every frame, visible to the transport layer
/// without decoding the payload (fault decisions key off it).  `trace`
/// rides the extension block on the wire (0 = untraced, no extension
/// emitted) so the server-side handler sees the same trace id the client
/// derived — transport-independent by construction.
struct FrameContext {
  FrameType type = FrameType::kPing;
  std::uint32_t shard = 0;
  std::uint32_t attempt = 1;
  std::uint64_t trace = 0;
};

[[nodiscard]] std::string encode_frame(const FrameContext& ctx,
                                       std::string_view payload);

enum class DecodeStatus {
  kNeedMore,  ///< buffer holds a frame prefix; keep reading
  kFrame,     ///< one complete, checksum-verified frame decoded
  kCorrupt,   ///< the bytes can never become a valid frame
};

struct DecodedFrame {
  DecodeStatus status = DecodeStatus::kNeedMore;
  FrameContext ctx;
  std::string_view payload;   ///< view into the caller's buffer
  std::size_t consumed = 0;   ///< bytes to drop from the buffer front
  const char* error = nullptr;  ///< set when status == kCorrupt
};

/// Attempts to decode one frame from the front of `buffer`.  The returned
/// payload view aliases `buffer` and is valid until the buffer mutates.
[[nodiscard]] DecodedFrame try_decode_frame(std::string_view buffer);

}  // namespace fbf::net
