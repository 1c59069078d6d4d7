// telemetry: the process-wide observability layer (DESIGN.md §16).
//
// Every stats producer in the repo — the pipeline ladder, the serve
// request families, the transports, the cluster rebalance — reports
// through one `telemetry::Registry` under a canonical dotted naming
// scheme (`pipeline.fbf_pass`, `serve.query`, `net.fault.deadline`,
// `cluster.rebalance.step`), so a live `fbf_served` instance exposes the
// per-stage filter selectivity the paper's cascade argument rests on.
//
// Three primitives, chosen for the hot path they instrument:
//
//  * Counter — monotonic u64, sharded across cache-line-padded per-thread
//    slots so concurrent `add`s from the parallel join workers never
//    bounce one line; `value()` sums the slots.
//  * Gauge — a plain atomic i64 for set-at-snapshot values (corpus size,
//    parked quarantine rows).
//  * Histogram — log-bucketed (8 sub-buckets per octave) latency
//    recording with a *deterministic* merge: bucket counts are integer
//    adds and the running sum is fixed-point u64, so merging shards in
//    any order yields byte-identical snapshots.  Percentiles come from
//    the type-7 rank (util::stats) interpolated over the bucket CDF.
//
// Request tracing rides the same registry: a trace id derived
// deterministically from the request bytes (derive_trace_id) is carried
// in a frame extension over TCP (net/frame.hpp) and in FrameContext
// in-process, so the spans a request leaves behind are transport-
// independent — the propagation-equality property test pins that down.
//
// Overhead gating: hot paths guard their mirroring with
// `telemetry::enabled()`.  With the CMake option FBF_TELEMETRY=OFF the
// guard is constexpr-false and the instrumentation folds away entirely;
// with it ON (default) a runtime toggle remains so one binary can
// measure on-vs-off (`bench_micro_kernels --telemetry-gate`).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fbf::telemetry {

// --- enable gates -------------------------------------------------------

namespace detail {
inline std::atomic<bool>& enabled_flag() noexcept {
  static std::atomic<bool> flag{true};
  return flag;
}
inline std::atomic<bool>& trace_flag() noexcept {
  static std::atomic<bool> flag{true};
  return flag;
}
}  // namespace detail

#if defined(FBF_TELEMETRY_ENABLED)
/// Hot-path guard: one relaxed load when compiled in.
[[nodiscard]] inline bool enabled() noexcept {
  return detail::enabled_flag().load(std::memory_order_relaxed);
}
#else
/// Compiled out (-DFBF_TELEMETRY=OFF): the guard is constexpr false and
/// every `if (telemetry::enabled())` block is dead code.
[[nodiscard]] constexpr bool enabled() noexcept { return false; }
#endif

/// Runtime toggle (no-op observable effect when compiled out).
inline void set_enabled(bool on) noexcept {
  detail::enabled_flag().store(on, std::memory_order_relaxed);
}

/// Tracing rides the telemetry gate: spans and frame extensions are only
/// produced when both the layer and the trace toggle are on.
[[nodiscard]] inline bool trace_enabled() noexcept {
  return enabled() && detail::trace_flag().load(std::memory_order_relaxed);
}
inline void set_trace_enabled(bool on) noexcept {
  detail::trace_flag().store(on, std::memory_order_relaxed);
}

// --- counters / gauges --------------------------------------------------

/// Slot count for sharded counters; power of two, enough that the join
/// worker pools (≤ hardware threads) rarely share a slot.
inline constexpr unsigned kCounterSlots = 16;

namespace detail {
/// Stable per-thread slot assignment, shared by every Counter: threads
/// are dealt slots round-robin, so two hot threads land on different
/// cache lines until more than kCounterSlots threads exist.
[[nodiscard]] inline unsigned thread_slot() noexcept {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned slot =
      next.fetch_add(1, std::memory_order_relaxed) % kCounterSlots;
  return slot;
}
}  // namespace detail

/// Monotonic counter, sharded per thread slot.  `add` is one relaxed
/// fetch_add on a cache line other hot threads do not touch.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n) noexcept {
    slots_[detail::thread_slot()].value.fetch_add(n,
                                                  std::memory_order_relaxed);
  }
  void increment() noexcept { add(1); }

  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Slot& slot : slots_) {
      total += slot.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Test/reset hook: zeroes every slot (not atomic vs concurrent adds).
  void reset() noexcept {
    for (Slot& slot : slots_) {
      slot.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Slot, kCounterSlots> slots_;
};

/// Last-write-wins signed value (sizes, occupancy).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t v) noexcept {
    value_.fetch_add(v, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0); }

 private:
  std::atomic<std::int64_t> value_{0};
};

// --- histograms ---------------------------------------------------------

/// Log-bucket geometry: 8 sub-buckets per octave over octaves
/// [2^-14, 2^24) — for millisecond latencies that is ~61 ns to ~4.6 h,
/// with ≤ 9% relative bucket width.  Out-of-range values clamp to the
/// edge buckets (count and max stay exact).
inline constexpr int kHistogramSubBuckets = 8;
inline constexpr int kHistogramMinExp = -14;
inline constexpr int kHistogramMaxExp = 24;
inline constexpr std::size_t kHistogramBuckets =
    static_cast<std::size_t>(kHistogramMaxExp - kHistogramMinExp) *
    static_cast<std::size_t>(kHistogramSubBuckets);

/// Maps a value to its bucket; ≤ 0 and subnormal-small values land in
/// bucket 0.
[[nodiscard]] std::size_t histogram_bucket_index(double v) noexcept;

/// Inclusive lower edge of a bucket: 2^octave * (1 + sub/8).
[[nodiscard]] double histogram_bucket_lower(std::size_t index) noexcept;

/// A point-in-time copy of a histogram.  All state is integral, so
/// `merge` is commutative and associative — merging per-thread or
/// per-shard snapshots in ANY order produces byte-identical results
/// (the determinism property test).
struct HistogramSnapshot {
  std::vector<std::uint64_t> buckets;  ///< kHistogramBuckets counts
  std::uint64_t count = 0;
  std::uint64_t sum_fp = 0;  ///< Σ value, fixed-point 1/1024 units
  std::uint64_t max_fp = 0;  ///< max value, fixed-point 1/1024 units

  void merge(const HistogramSnapshot& other);

  [[nodiscard]] double sum() const noexcept {
    return static_cast<double>(sum_fp) / 1024.0;
  }
  [[nodiscard]] double max() const noexcept {
    return static_cast<double>(max_fp) / 1024.0;
  }
  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0 : sum() / static_cast<double>(count);
  }
  /// Type-7 rank (util::stats::type7_rank) over the bucket CDF with
  /// linear interpolation inside the bucket, clamped by the exact max.
  [[nodiscard]] double percentile(double q) const;
};

/// Concurrent log-bucketed histogram.  `record` is three relaxed RMWs
/// plus a CAS loop for the max — no locks, no floating-point
/// accumulation (the sum is fixed-point, keeping snapshots deterministic
/// under any thread interleaving of a fixed multiset of samples).
class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(double v) noexcept;
  [[nodiscard]] HistogramSnapshot snapshot() const;
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  void reset() noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_fp_{0};
  std::atomic<std::uint64_t> max_fp_{0};
};

// --- tracing ------------------------------------------------------------

/// One recorded span: what a traced request touched at one layer.
struct SpanRecord {
  std::uint64_t trace = 0;  ///< derive_trace_id of the originating request
  std::string name;         ///< layer event, e.g. "net.call", "serve.query"
  std::uint32_t shard = 0;
  std::uint32_t attempt = 0;
  bool ok = true;
};

/// Deterministic trace id for a request: seeded from the frame type and
/// hashed over the request payload, so the same request produces the
/// same id on every transport and every retry attempt.  Never 0 (0 on
/// the wire means "untraced").
[[nodiscard]] std::uint64_t derive_trace_id(std::uint16_t type,
                                            std::string_view payload) noexcept;

/// The trace id of the request currently being processed on this thread
/// (0 when none).  Set by the serve handler, read by layers below it
/// that have no trace parameter of their own (e.g. the coalescer).
[[nodiscard]] std::uint64_t current_trace() noexcept;

/// RAII setter for current_trace().
class ScopedTrace {
 public:
  explicit ScopedTrace(std::uint64_t trace) noexcept;
  ~ScopedTrace();
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  std::uint64_t saved_;
};

// --- registry -----------------------------------------------------------

/// Name → metric map.  Lookup is mutex-guarded (callers cache the
/// returned reference — it is stable for the registry's lifetime); the
/// metrics themselves are lock-free.  One process-wide instance
/// (`global()`) backs the hot paths; components that need isolation
/// (one MatchService per test) construct their own.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);

  /// Sorted copies for snapshotting (telemetry/snapshot.hpp).
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  counter_values() const;
  [[nodiscard]] std::vector<std::pair<std::string, std::int64_t>>
  gauge_values() const;
  [[nodiscard]] std::vector<std::pair<std::string, HistogramSnapshot>>
  histogram_values() const;

  /// Bounded span ring (oldest evicted); recording is cheap enough for
  /// per-request spans but not for per-candidate work.
  void record_span(SpanRecord span);
  [[nodiscard]] std::vector<SpanRecord> spans() const;
  void clear_spans();

  /// Zeroes every metric IN PLACE (cached Counter&/Histogram& handles
  /// stay valid) and clears the span ring.  Test isolation hook.
  void reset();

  [[nodiscard]] static Registry& global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;

  mutable std::mutex span_mu_;
  std::deque<SpanRecord> spans_;
};

/// Span ring capacity per registry.
inline constexpr std::size_t kSpanRingCapacity = 1024;

}  // namespace fbf::telemetry
