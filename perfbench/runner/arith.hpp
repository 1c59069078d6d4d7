// The benchmark's own arithmetic: percentiles, the tail-percentile rule,
// span self time and the name charset.  Header-only so the tests in
// tests/test_arith.cpp compile it without the fbf libraries.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string_view>
#include <vector>

namespace perfbench {

/// Linear-interpolation percentile (p in [0, 100]) of an ascending-sorted
/// sample; 0 for an empty sample.
[[nodiscard]] inline double percentile_sorted(const std::vector<double>& sorted,
                                              double p) {
  if (sorted.empty()) {
    return 0.0;
  }
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

[[nodiscard]] inline double percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, p);
}

/// The tail percentile a sample of `n` supports: the highest of p99, p90
/// and p75 that has at least ten samples beyond it, else the median.  A
/// p99 needs n >= 1000.
[[nodiscard]] inline double tail_percentile(std::size_t n) {
  // Per-mille ladder; the test n * (1 - p) >= 10 in integers.
  for (const std::size_t per_mille : {990u, 900u, 750u}) {
    if (n * (1000 - per_mille) >= 10 * 1000) {
      return static_cast<double>(per_mille) / 10.0;
    }
  }
  return 50.0;
}

/// The sample at its tail percentile.
[[nodiscard]] inline double tail(const std::vector<double>& values) {
  return percentile(values, tail_percentile(values.size()));
}

/// Percentile p of a sample in arrival order, read robustly: split into
/// consecutive windows of at least 1000 samples, take each window's
/// percentile and report their median, so a burst of interference
/// confined to a few windows does not move it.  Below two windows this is
/// the plain percentile.
[[nodiscard]] inline double windowed_percentile(const std::vector<double>& in_order,
                                                double p) {
  const std::size_t windows = in_order.size() / 1000;
  if (windows < 2) {
    return percentile(in_order, p);
  }
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto begin = in_order.begin() +
                       static_cast<std::ptrdiff_t>(w * in_order.size() / windows);
    const auto end = in_order.begin() +
                     static_cast<std::ptrdiff_t>((w + 1) * in_order.size() / windows);
    per_window.push_back(percentile(std::vector<double>(begin, end), p));
  }
  return percentile(per_window, 50.0);
}

struct Interval {
  double start = 0.0;
  double end = 0.0;
};

/// Self time of a span: its duration minus the part of its interval that
/// the union of its children's intervals covers.  Children may overlap
/// each other and stick out of the parent; only the covered part of the
/// parent counts.
[[nodiscard]] inline double self_time(Interval parent,
                                      std::vector<Interval> children) {
  const double total = std::max(0.0, parent.end - parent.start);
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  double covered = 0.0;
  double cursor = parent.start;
  for (const Interval& child : children) {
    const double start = std::max(child.start, cursor);
    const double end = std::min(child.end, parent.end);
    if (end > start) {
      covered += end - start;
      cursor = end;
    }
  }
  return total - covered;
}

/// Metric and workload names: 1-64 characters of [A-Za-z0-9_.-],
/// starting with a letter or digit.
[[nodiscard]] inline bool valid_name(std::string_view name) {
  if (name.empty() || name.size() > 64) {
    return false;
  }
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

}  // namespace perfbench
