// MetricsSnapshot: a point-in-time, order-stable view of a Registry —
// the unit the admin metrics endpoint ships, the periodic
// `--metrics-interval` log diffs, and the tests compare.
//
// Counters and gauges are (name, value) rows sorted by name; histograms
// are reduced to the serving summary (count, mean, p50/p99/p999, max)
// so the wire format stays small while the percentile math runs on the
// full bucket CDF server-side.  `info` carries non-numeric facts
// (kernel name, backend) the text table prints alongside.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "telemetry/telemetry.hpp"
#include "util/status.hpp"

namespace fbf::telemetry {

/// One histogram reduced to its serving summary.
struct HistogramStats {
  std::string name;
  std::uint64_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  double max = 0.0;
};

struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<HistogramStats> histograms;
  std::vector<std::pair<std::string, std::string>> info;

  /// Lookup helpers (0 / empty when absent).
  [[nodiscard]] std::uint64_t counter(std::string_view name) const noexcept;
  [[nodiscard]] std::int64_t gauge(std::string_view name) const noexcept;
  [[nodiscard]] const HistogramStats* histogram(
      std::string_view name) const noexcept;
};

/// Captures every metric of `registry`, rows sorted by name.
[[nodiscard]] MetricsSnapshot capture(const Registry& registry);

/// Merges `extra`'s rows into `base` (disjoint name sets expected; on a
/// collision the `base` row wins).  Used to combine a component-local
/// registry with the process-global one for serving.
void merge_into(MetricsSnapshot& base, const MetricsSnapshot& extra);

/// What moved between two captures of the same registry: counters are
/// subtracted (zero-delta rows dropped), gauges and histogram summaries
/// report the current value with the count delta.  The periodic
/// snapshot-diff log prints exactly this.
[[nodiscard]] MetricsSnapshot diff(const MetricsSnapshot& prev,
                                   const MetricsSnapshot& cur);

/// Human-readable aligned table (the admin endpoint's default render).
[[nodiscard]] std::string render_metrics_table(const MetricsSnapshot& snap);

/// Machine-readable render (`--json`): one object with counters /
/// gauges / histograms / info maps.
[[nodiscard]] std::string render_metrics_json(const MetricsSnapshot& snap);

// --- wire codec (admin kMetrics payload) --------------------------------

[[nodiscard]] std::string encode_metrics_snapshot(const MetricsSnapshot& snap);
[[nodiscard]] fbf::util::Result<MetricsSnapshot> decode_metrics_snapshot(
    std::string_view payload);

}  // namespace fbf::telemetry
