// Bounded exponential-backoff retry policy.
//
// One policy type shared by every layer that retries: the elastic shard
// driver's replica writes, queries and migration calls
// (cluster::ShardFaultPolicy) and the socket transport (TcpTransport
// connect establishment) consume the same knobs instead of carrying
// private copies.  The policy is pure
// arithmetic — whether a delay is actually slept (sockets) or recorded in
// a simulated wall-clock (in-process shards) is the caller's business.
//
// Full jitter: when many shards fail at once (a node death fails every
// replica write targeting it), deterministic exponential backoff makes
// every retry land on the same schedule — a synchronized retry storm that
// re-overloads whatever just recovered.  `full_jitter` spreads each delay
// uniformly over [0, nominal], AWS-style, but keeps the draw *seeded and
// keyed* (jitter_seed, caller key, attempt) so a run replays bit-for-bit:
// two callers with different keys desynchronize, the same caller at the
// same attempt always waits the same time.  Default off — existing
// schedules are byte-identical until a caller opts in.
#pragma once

#include <algorithm>
#include <cstdint>

#include "util/rng.hpp"

namespace fbf::util {

struct RetryPolicy {
  int max_attempts = 4;             ///< first try + bounded retries
  double backoff_base_ms = 1.0;     ///< delay after the first failure
  double backoff_multiplier = 2.0;  ///< exponential growth per retry
  bool full_jitter = false;         ///< draw each delay uniform in [0, nominal]
  std::uint64_t jitter_seed = 0;    ///< keys the jitter draws (with caller key)

  /// max_attempts clamped to at least one try.
  [[nodiscard]] int bounded_attempts() const noexcept {
    return std::max(1, max_attempts);
  }

  /// Nominal (jitter-free) delay after failed attempt number `attempt`
  /// (1-based): base * multiplier^(attempt-1).  Attempts below 1 are
  /// treated as 1.  This is also the jittered delay's upper bound.
  [[nodiscard]] double next_delay_ms(int attempt) const noexcept {
    double delay = backoff_base_ms;
    for (int a = 1; a < attempt; ++a) {
      delay *= backoff_multiplier;
    }
    return delay;
  }

  /// Delay to wait after failed attempt number `attempt`, keyed by the
  /// caller's identity (shard id, node id, partition — anything stable).
  /// Without full_jitter this is exactly next_delay_ms(attempt); with it,
  /// a pure (jitter_seed, key, attempt) draw scales the nominal delay by
  /// uniform [0, 1) — deterministic, order-independent, desynchronized
  /// across keys.
  [[nodiscard]] double delay_ms(int attempt, std::uint64_t key) const noexcept {
    const double nominal = next_delay_ms(attempt);
    if (!full_jitter) {
      return nominal;
    }
    SplitMix64 stream(jitter_seed ^ (key * 0x9E3779B97F4A7C15ull) ^
                      (static_cast<std::uint64_t>(std::max(1, attempt)) << 32));
    const double unit =
        static_cast<double>(stream.next() >> 11) * 0x1.0p-53;  // [0, 1)
    return nominal * unit;
  }

  /// Total nominal backoff accumulated by `failures` consecutive failed
  /// attempts (the geometric series the retry loop would have waited
  /// through; with full_jitter the actual total is bounded above by this).
  [[nodiscard]] double total_delay_ms(int failures) const noexcept {
    double total = 0.0;
    for (int a = 1; a <= failures; ++a) {
      total += next_delay_ms(a);
    }
    return total;
  }
};

}  // namespace fbf::util
