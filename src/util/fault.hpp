// Deterministic fault injection for the simulated distributed layer.
//
// Real nightly runs die in ways the happy path never exercises: a node
// drops out mid-join, a snapshot write loses a byte, a journal append is
// cut short by the very crash it was guarding against.  FaultInjector
// turns those into reproducible events: every decision is a pure function
// of (seed, site, shard, attempt), so a failing run replays bit-for-bit
// under a debugger, tests can assert exact outcomes, and the decision for
// shard 3 / attempt 2 does not depend on how many other faults were drawn
// before it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace fbf::util {

/// Fault rates, all default-off (a default FaultConfig injects nothing).
struct FaultConfig {
  std::uint64_t seed = 0;
  double shard_fail_rate = 0.0;      ///< P(one shard attempt fails)
  double snapshot_corrupt_rate = 0.0;  ///< P(a snapshot write flips a byte)
  double journal_truncate_rate = 0.0;  ///< P(a journal append is cut short)
  int fail_shard = -1;  ///< this shard index fails EVERY attempt (permanent)

  // Storage-backend faults (src/storage), keyed by blob name + the
  // backend's per-blob operation sequence so the decision for one blob
  // never depends on traffic to another.
  double put_fail_rate = 0.0;   ///< P(a blob put reports failure, nothing lands)
  double torn_write_rate = 0.0; ///< P(a put/sync lands only a byte prefix)
  double lost_object_rate = 0.0;  ///< P(a put acks but the object vanishes)
  double slow_backend_rate = 0.0; ///< P(a backend op is tagged slow)
  double slow_backend_ms = 0.0;   ///< simulated delay when slow fires (0 = tally only)
};

/// Tallies of what was actually injected (for reports and assertions).
struct FaultCounters {
  std::uint64_t shard_failures = 0;
  std::uint64_t bytes_corrupted = 0;
  std::uint64_t truncations = 0;
  std::uint64_t put_failures = 0;
  std::uint64_t torn_writes = 0;
  std::uint64_t lost_objects = 0;
  std::uint64_t slow_ops = 0;
};

/// How a failed shard attempt manifests at the socket layer.  The
/// *decision* that an attempt fails is shard_attempt_fails(); the *kind*
/// picks which real failure the TCP transport produces.  The in-process
/// transport ignores the kind (there is no socket to break), which is
/// exactly why the two transports stay counter-equivalent: same failure
/// decisions, different manifestations.
enum class NetFaultKind {
  kConnectRefused,      ///< client connects to a port nobody listens on
  kMidFrameDisconnect,  ///< server closes after a partial reply frame
  kDeadlineExpiry,      ///< server stalls past the client's deadline
  kGarbledFrame,        ///< one reply byte flipped -> checksum reject
};

inline constexpr int kNetFaultKindCount = 4;

[[nodiscard]] const char* net_fault_kind_name(NetFaultKind kind) noexcept;

class FaultInjector {
 public:
  explicit FaultInjector(FaultConfig config = {}) : config_(config) {}

  /// Pure decision: would the given (shard, attempt) fail?  `fail_shard`
  /// faults are permanent; rate faults are independent per attempt.
  /// Const and counter-free so the transport client and server can both
  /// evaluate it from their own injector instance and always agree.
  [[nodiscard]] bool would_fail(std::size_t shard, int attempt) const noexcept;

  /// Which socket failure a failing (shard, attempt) manifests as.
  /// Pure draw over the four kinds, keyed like would_fail().
  [[nodiscard]] NetFaultKind net_fault_kind(std::size_t shard,
                                            int attempt) const noexcept;

  /// would_fail() plus the shard_failures tally.
  [[nodiscard]] bool shard_attempt_fails(std::size_t shard, int attempt);

  /// Maybe flips one bit of one byte of `bytes`; returns the corrupted
  /// offset when a corruption fired.  `sequence` is the caller's logical
  /// position for this write (e.g. batches ingested) so the decision is a
  /// pure function of (seed, site, sequence), independent of how many
  /// earlier faults fired.
  std::optional<std::size_t> corrupt_bytes(std::string& bytes,
                                           std::string_view site,
                                           std::uint64_t sequence);

  /// Number of bytes of a `size`-byte write that actually reach the disk
  /// — strictly less than `size` when a truncation fires (models a crash
  /// mid-append; the writer should be treated as dead afterwards).
  /// `sequence` keys the draw as in corrupt_bytes().
  [[nodiscard]] std::size_t truncated_size(std::size_t size,
                                           std::string_view site,
                                           std::uint64_t sequence);

  // --- storage-backend faults (src/storage) ---------------------------
  // All keyed by (seed, site, fnv1a64(blob name), sequence): the same
  // blob at the same per-blob operation index always draws the same
  // fate, regardless of interleaved traffic to other blobs.

  /// Does this put fail outright (nothing lands, caller sees an error)?
  [[nodiscard]] bool put_fails(std::string_view name, std::uint64_t sequence);

  /// Bytes of a `size`-byte put/sync that actually land — strictly less
  /// than `size` when a torn write fires (a non-atomic backend crashed
  /// mid-object; the partial object is observable).
  [[nodiscard]] std::size_t torn_write_size(std::size_t size,
                                            std::string_view name,
                                            std::uint64_t sequence);

  /// Does this put ack and then lose the object (failed async
  /// replication: the write "succeeded" but a later get finds nothing)?
  [[nodiscard]] bool object_lost(std::string_view name,
                                 std::uint64_t sequence);

  /// Is this backend op tagged slow?  Tallied always; callers sleep
  /// config().slow_backend_ms when it is > 0.
  [[nodiscard]] bool backend_slow(std::string_view name,
                                  std::uint64_t sequence);

  [[nodiscard]] const FaultCounters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const FaultConfig& config() const noexcept { return config_; }

 private:
  /// Uniform [0, 1) draw keyed by (seed, site, a, b) — order-independent.
  [[nodiscard]] double draw(std::string_view site, std::uint64_t a,
                            std::uint64_t b) const noexcept;
  /// Raw 64-bit stream for picking offsets/bits, same keying.
  [[nodiscard]] std::uint64_t bits(std::string_view site, std::uint64_t a,
                                   std::uint64_t b) const noexcept;

  FaultConfig config_;
  FaultCounters counters_;
};

}  // namespace fbf::util
