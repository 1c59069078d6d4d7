#include "runner/harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <thread>

#include "telemetry/telemetry.hpp"

namespace perfbench {

double now_ms() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double, std::milli>(Clock::now() - epoch)
      .count();
}

std::uint64_t draw(std::uint64_t seed, std::uint64_t i) {
  // SplitMix64 over (seed, i).
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + i + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void SpanLog::add(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> SpanLog::take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(spans_, {});
}

std::vector<double> SpanLog::durations(const std::vector<Span>& spans,
                                       std::string_view name) {
  std::vector<double> out;
  for (const Span& span : spans) {
    if (name == span.name) {
      out.push_back(span.ms());
    }
  }
  return out;
}

std::uint64_t request_id(std::uint16_t frame_type, std::string_view payload) {
  return fbf::telemetry::derive_trace_id(frame_type, payload);
}

std::vector<double> client_self_times(const std::vector<Span>& calls,
                                      const std::vector<Span>& handled) {
  std::multimap<std::uint64_t, Interval> handler_by_request;
  for (const Span& span : handled) {
    handler_by_request.emplace(span.request, span.interval());
  }
  std::vector<double> self;
  for (const Span& call : calls) {
    std::vector<Interval> children;
    const auto [lo, hi] = handler_by_request.equal_range(call.request);
    for (auto it = lo; it != hi; ++it) {
      children.push_back(it->second);
    }
    self.push_back(self_time(call.interval(), children));
  }
  return self;
}

namespace {

/// Load threads of one loop at most; they and the service CPU need a CPU
/// each for pinning to apply.
constexpr std::size_t kMaxLoadThreads = 3;

/// The CPUs this process may use, read once before any pinning.
const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) {
          out.push_back(cpu);
        }
      }
    }
    return out;
  }();
  return cpus;
}

bool placement_applies() { return allowed_cpus().size() > kMaxLoadThreads; }

void pin_calling_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) {
    CPU_SET(cpu, &set);
  }
  (void)sched_setaffinity(0, sizeof set, &set);
}

/// Load threads take the CPUs other than the service CPU in turn, so the
/// at most kMaxLoadThreads that run at once never share one.
void pin_load_thread() {
  static std::atomic<std::size_t> next{0};
  if (placement_applies()) {
    const std::vector<int>& cpus = allowed_cpus();
    pin_calling_thread({cpus[next++ % (cpus.size() - 1)]});
  }
}

/// Sleeps to just short of `due_ms`, then spins the rest: a timer wake-up
/// on a virtual machine can run late by a varying amount, which would
/// otherwise be charged to the request as latency.
void wait_until_ms(double due_ms) {
  constexpr double kSpinMs = 0.2;
  const double wait = due_ms - now_ms() - kSpinMs;
  if (wait > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(wait));
  }
  while (now_ms() < due_ms) {
  }
}

/// Runs `body(thread)` on `threads` threads and joins them all.
void run_threads(std::size_t threads,
                 const std::function<void(std::size_t)>& body) {
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&body, t] {
      pin_load_thread();
      body(t);
    });
  }
  for (std::thread& thread : pool) {
    thread.join();
  }
}

}  // namespace

ServiceCpu::ServiceCpu() {
  if (placement_applies()) {
    pin_calling_thread({allowed_cpus().back()});
  }
}

ServiceCpu::~ServiceCpu() {
  if (placement_applies()) {
    pin_calling_thread(allowed_cpus());
  }
}

std::string cpu_placement() {
  if (!placement_applies()) {
    return "unpinned";
  }
  const std::vector<int>& cpus = allowed_cpus();
  std::string out = "service cpu " + std::to_string(cpus.back()) + ", load cpus";
  for (std::size_t i = 0; i + 1 < cpus.size(); ++i) {
    out += " " + std::to_string(cpus[i]);
  }
  return out;
}

LoopStats open_loop(double rate_per_s, double seconds, std::size_t threads,
                    const Op& op) {
  const auto total = static_cast<std::size_t>(rate_per_s * seconds);
  std::vector<double> latency(total, -1.0);
  std::vector<double> lag(total, 0.0);
  std::atomic<std::size_t> next{0};
  const double start = now_ms();
  const double interval_ms = 1000.0 / rate_per_s;
  run_threads(threads, [&](std::size_t thread) {
    for (std::size_t i = next++; i < total; i = next++) {
      const double due = start + static_cast<double>(i) * interval_ms;
      wait_until_ms(due);
      const double sent = now_ms();
      const bool ok = op(i, thread);
      if (ok) {
        latency[i] = now_ms() - due;
      }
      lag[i] = sent - due;
    }
  });
  LoopStats stats;
  stats.wall_s = (now_ms() - start) / 1000.0;
  stats.attempted = total;
  for (const double ms : latency) {
    if (ms >= 0.0) {
      stats.latency_ms.push_back(ms);
    } else {
      ++stats.failed;
    }
  }
  stats.backlog = backlog_grew(lag);
  stats.lag_ms = std::move(lag);
  return stats;
}

LoopStats closed_loop(double seconds, std::size_t threads, const Op& op) {
  // (send time, latency) per thread, merged into send order afterwards.
  std::vector<std::vector<std::pair<double, double>>> latency(threads);
  std::vector<std::size_t> failed(threads, 0);
  std::atomic<std::size_t> next{0};
  const double start = now_ms();
  const double stop = start + seconds * 1000.0;
  run_threads(threads, [&](std::size_t thread) {
    wait_until_ms(start + 0.4 * static_cast<double>(thread));
    while (now_ms() < stop) {
      const double sent = now_ms();
      if (op(next++, thread)) {
        latency[thread].emplace_back(sent, now_ms() - sent);
      } else {
        ++failed[thread];
      }
    }
  });
  LoopStats stats;
  stats.wall_s = (now_ms() - start) / 1000.0;
  std::vector<std::pair<double, double>> merged;
  for (std::size_t t = 0; t < threads; ++t) {
    merged.insert(merged.end(), latency[t].begin(), latency[t].end());
    stats.failed += failed[t];
  }
  std::sort(merged.begin(), merged.end());
  for (const auto& [sent, ms] : merged) {
    stats.latency_ms.push_back(ms);
  }
  stats.attempted = stats.latency_ms.size() + stats.failed;
  return stats;
}

void append(LoopStats& into, const LoopStats& more) {
  into.latency_ms.insert(into.latency_ms.end(), more.latency_ms.begin(),
                         more.latency_ms.end());
  into.lag_ms.insert(into.lag_ms.end(), more.lag_ms.begin(), more.lag_ms.end());
  into.attempted += more.attempted;
  into.failed += more.failed;
  into.wall_s += more.wall_s;
  into.backlog = into.backlog || more.backlog;
}

bool backlog_grew(const std::vector<double>& lag_by_index, double limit_ms) {
  const std::size_t half = lag_by_index.size() / 2;
  if (half == 0) {
    return false;
  }
  const std::vector<double> last(lag_by_index.end() - static_cast<std::ptrdiff_t>(half),
                                 lag_by_index.end());
  return percentile(last, 50.0) > limit_ms;
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},        {"rss_mb", "MB"},       {"main_p50_ms", "ms"},
      {"side_p50_ms", "ms"},   {"side_tail_ms", "ms"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"net.self_ms.p50", "ms"},
      {"net.self_ms.p99", "ms"},
      {"net.calls_per_request", "count"},
      {"serve.self_ms.p50", "ms"},
      {"serve.overloaded", "count"},
      {"coalescer.wait_ms.p50", "ms"},
      {"coalescer.wait_ms.p99", "ms"},
      {"coalescer.batch_size.mean", "count"},
      {"corpus.batch_ms.p50", "ms"},
      {"corpus.batch_ms.p99", "ms"},
      {"generate.build_ms", "ms"},
      {"generate.ms", "ms"},
      {"generate.selectivity", "ratio"},
      {"filter.ms", "ms"},
      {"filter.lanes_per_s", "1/s"},
      {"filter.pass_ratio", "ratio"},
      {"verify.ms", "ms"},
      {"verify.calls", "count"},
      {"verify.match_ratio", "ratio"},
      {"store.ingest_ms.p50", "ms"},
      {"store.probe_ms.p50", "ms"},
      {"store.lock_wait_ms.p99", "ms"},
      {"store.comparisons_per_probe", "count"},
      {"journal.checkpoint_ms.p99", "ms"},
      {"journal.checkpoints", "count"},
      {"journal.syncs_per_ingest", "ratio"},
      {"storage.bytes_per_record", "B"},
      {"share.corpus", "ratio"},
      {"share.front", "ratio"},
      {"share.store", "ratio"},
      {"join.tile_ratio", "ratio"},
      {"trace.overhead_ratio", "ratio"},
      {"trace.base_ms", "ms"},
      {"loadgen.sched_lag_ms.p99", "ms"},
  };
  return specs;
}

double median_seconds(double budget_s, const std::function<void()>& fn,
                      const std::function<void()>& untimed) {
  std::vector<double> seconds;
  double total = 0.0;
  while (seconds.size() < 3 || (total < budget_s && seconds.size() < 10000)) {
    if (untimed) {
      untimed();
    }
    const double start = now_ms();
    fn();
    seconds.push_back((now_ms() - start) / 1000.0);
    total += seconds.back();
  }
  return percentile(seconds, 50.0);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double counter_delta(const fbf::telemetry::MetricsSnapshot& before,
                     const fbf::telemetry::MetricsSnapshot& after,
                     std::string_view name) {
  return static_cast<double>(after.counter(name)) -
         static_cast<double>(before.counter(name));
}

double gauge_delta(const fbf::telemetry::MetricsSnapshot& before,
                   const fbf::telemetry::MetricsSnapshot& after,
                   std::string_view name) {
  return static_cast<double>(after.gauge(name) - before.gauge(name));
}

std::string describe_latency(const std::vector<double>& ms) {
  const double tail_p = tail_percentile(ms.size());
  char line[160];
  std::snprintf(line, sizeof line, "p50 %.3f ms, p%g %.3f ms over n=%zu",
                percentile(ms, 50.0), tail_p, percentile(ms, tail_p), ms.size());
  return line;
}

double judge_open_loop(const char* label, const LoopStats& loop,
                       Result& result) {
  const double lag_p99 = tail(loop.lag_ms);
  char line[200];
  std::snprintf(line, sizeof line,
                "%s: sched_lag_ms p99 %.3f, backlog %s, %zu/%zu failed",
                label, lag_p99, loop.backlog ? "GREW" : "none", loop.failed,
                loop.attempted);
  result.note(line);
  if (loop.backlog) {
    result.fail(std::string(label) +
                ": the open-loop generator fell behind its schedule; the "
                "run is invalid, not fast");
  }
  return lag_p99;
}

}  // namespace perfbench
