// Shared machinery of the benchmark program: the clock, the span log, the
// open- and closed-loop load generators, the metric catalogue and the
// result record every workload fills.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "runner/arith.hpp"
#include "telemetry/snapshot.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds since the first call in this process.
[[nodiscard]] double now_ms();

/// Seed-keyed draw for request i of a stream (the same seed gives the
/// same request sequence).
[[nodiscard]] std::uint64_t draw(std::uint64_t seed, std::uint64_t i);

// --- spans ------------------------------------------------------------------

/// One span recorded around a call into a layer: which layer, which
/// request it served, the layer that caused it, and when it ran.
struct Span {
  const char* name = "";
  std::uint64_t request = 0;
  const char* parent = "";  ///< the causing span's name ("" at the root)
  double start_ms = 0.0;
  double end_ms = 0.0;

  [[nodiscard]] double ms() const { return end_ms - start_ms; }
  [[nodiscard]] Interval interval() const { return {start_ms, end_ms}; }
};

/// In-memory span store, filled concurrently and read after the phase.
class SpanLog {
 public:
  void add(const Span& span);
  [[nodiscard]] std::vector<Span> take();
  /// Durations (ms) of the spans named `name`.
  [[nodiscard]] static std::vector<double> durations(
      const std::vector<Span>& spans, std::string_view name);

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// The request id a span carries: the program's trace-id derivation over
/// the frame type and the request bytes.  The benchmark computes it on
/// both sides of a call, so the program's own tracing can stay off.
[[nodiscard]] std::uint64_t request_id(std::uint16_t frame_type,
                                       std::string_view payload);

/// Self time of each client span: its duration minus the handler spans
/// recorded for the same request id (the transport's share of the call).
[[nodiscard]] std::vector<double> client_self_times(
    const std::vector<Span>& calls, const std::vector<Span>& handled);

// --- CPU placement -----------------------------------------------------------

/// Pins the calling thread, for its lifetime, to the service CPU: the last
/// CPU this process may use.  Threads it starts meanwhile (the server's,
/// the coalescer's) inherit that CPU; the destructor restores the full
/// set.  The load threads of open_loop and closed_loop run on the other
/// CPUs, one each.  Left to the scheduler, this placement is chosen afresh
/// in every run and stays for the run, and it moved loopback latency by a
/// third between identical runs.  With fewer CPUs than load threads + 1,
/// nothing is pinned.
class ServiceCpu {
 public:
  ServiceCpu();
  ~ServiceCpu();
  ServiceCpu(const ServiceCpu&) = delete;
  ServiceCpu& operator=(const ServiceCpu&) = delete;
};

/// The placement for the header: "service cpu 3, load cpus 0 1 2", or
/// "unpinned" when it does not apply.
[[nodiscard]] std::string cpu_placement();

// --- load generation ---------------------------------------------------------

/// One request of a load loop: returns true when it succeeded.
using Op = std::function<bool(std::size_t i, std::size_t thread)>;

struct LoopStats {
  std::vector<double> latency_ms;  ///< successful requests, in send order
  std::vector<double> lag_ms;      ///< open loop: send time minus due time
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double wall_s = 0.0;
  bool backlog = false;  ///< open loop: the generator fell behind for good
};

/// Open loop: request i is due at i / rate seconds after the start and
/// is timed from its due time, so a stall charges every request queued
/// behind it.  `threads` senders share the schedule.
[[nodiscard]] LoopStats open_loop(double rate_per_s, double seconds,
                                  std::size_t threads, const Op& op);

/// Closed loop: `threads` callers each send their next request when the
/// previous one returns, until `seconds` have passed.  The callers start
/// 0.4 ms apart: started together they can fall into lockstep behind the
/// coalescer, a mode that independent clients would not share.
[[nodiscard]] LoopStats closed_loop(double seconds, std::size_t threads,
                                    const Op& op);

/// Appends a later segment of the same loop to `into`.
void append(LoopStats& into, const LoopStats& more);

/// The open-loop validity verdict: the last half of the schedule was
/// sent more than `limit_ms` late at the median.  A generator that cannot
/// keep its rate falls further behind with every request and fails this;
/// a stall of the host shorter than half the loop does not.
[[nodiscard]] bool backlog_grew(const std::vector<double>& lag_by_index,
                                double limit_ms = 10.0);

// --- metrics -----------------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric, reported by every workload with tracing off.
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
/// Every per-layer metric, reported by every workload with tracing on
/// (0 where the workload does not pass through the layer).
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
};

/// What one workload run produced.
struct Result {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, double> metrics;
  /// Header facts (kernel, generator, policies) stamped on the output.
  std::vector<std::pair<std::string, std::string>> stamp;
  /// Human-readable lines printed before the result.
  std::vector<std::string> notes;

  void fail(const std::string& why) {
    correct = false;
    notes.push_back("FAILED: " + why);
  }
  void note(const std::string& line) { notes.push_back(line); }
  /// Folds one loop's counts into attempted/failed.
  void count(const LoopStats& loop) {
    attempted += loop.attempted;
    failed += loop.failed;
  }
};

/// Median time (seconds) of repeated calls of `fn` — the set-up time: at
/// least three calls, more while their total stays under `budget_s` (at
/// most 10000), so a set-up of a millisecond is timed thousands of times
/// over the whole budget and its median does not hang on a few scheduler
/// hiccups or on one second of the host's load.
/// `untimed` runs before each call (tearing down the previous set-up).
[[nodiscard]] double median_seconds(double budget_s,
                                    const std::function<void()>& fn,
                                    const std::function<void()>& untimed = {});

/// Peak resident set size of this process in MB.
[[nodiscard]] double peak_rss_mb();

/// Counter delta between two snapshots.
[[nodiscard]] double counter_delta(const fbf::telemetry::MetricsSnapshot& before,
                                   const fbf::telemetry::MetricsSnapshot& after,
                                   std::string_view name);
[[nodiscard]] double gauge_delta(const fbf::telemetry::MetricsSnapshot& before,
                                 const fbf::telemetry::MetricsSnapshot& after,
                                 std::string_view name);

/// a / b, 0 when b is 0.
[[nodiscard]] inline double ratio(double a, double b) {
  return b != 0.0 ? a / b : 0.0;
}

/// "p50 1.234 ms, p99 5.678 ms over n=4321" for the notes.
[[nodiscard]] std::string describe_latency(const std::vector<double>& ms);

/// Stamps the open-loop facts (lag, backlog) into the notes and the
/// result's validity; returns the lag p99.
double judge_open_loop(const char* label, const LoopStats& loop,
                       Result& result);

// --- workloads ---------------------------------------------------------------

[[nodiscard]] Result run_point(const Args& args, bool tcp);
[[nodiscard]] Result run_ingest_probe(const Args& args);
[[nodiscard]] Result run_join(const Args& args);

}  // namespace perfbench
