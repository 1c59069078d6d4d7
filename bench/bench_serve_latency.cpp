// Serve-latency bench (DESIGN.md §15): closed- and open-loop workloads
// against the online match service, recording client-observed latency
// percentiles (p50/p99/p999) and sustained QPS.
//
// The headline measurement is the coalescing payoff: the same corpus,
// the same query stream, served once with coalescing disabled (Q=1 —
// every query probes the index and sweeps the unindexed tail alone) and
// once with full register blocks (Q=8, one grouped index probe and one
// tail sweep per batch); the bench records the QPS ratio.  Every phase
// runs against the published block index (the served default), so the
// ratio is the coalescer's cost or gain on that route.  An open-loop
// phase then replays arrivals at a fixed fraction of the measured Q=8
// capacity to show tail latency off-saturation, and a TCP phase
// round-trips through real loopback sockets (plus a fault-injected
// transport-equivalence check mirroring the property test).
//
//   --n        corpus size (default 12000; --full: 1000000, where the
//              index and the packed planes outgrow cache)
//   --clients  closed-loop client threads (default 8; --full: 16)
//   --queries  total queries per closed-loop phase (default 4000;
//              --full: 2000)
//   --repeats  best-of repeats per closed-loop phase (default 3)
//   --batch-threads  exec.threads for batch execution (default 1): >1
//              additionally fans a coalesced batch across cores (a Q=1
//              batch cannot fan) — raise it on multi-core hosts
//   --json     machine-readable output (BENCH_serve_latency.json)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "datagen/dataset.hpp"
#include "net/tcp.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "storage/mem_object.hpp"
#include "util/stats.hpp"

namespace {

namespace c = fbf::core;
namespace d = fbf::datagen;
namespace s = fbf::serve;
namespace u = fbf::util;
using Clock = std::chrono::steady_clock;

struct PhaseResult {
  std::string workload;
  std::size_t queries = 0;
  double wall_ms = 0.0;
  double qps = 0.0;
  u::LatencySummary latency;
  std::uint64_t coalesced_batches = 0;
  std::uint64_t max_batch = 0;
};

double elapsed_ms(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since)
      .count();
}

/// Closed loop: `clients` threads each fire their share of `total`
/// queries back-to-back — the saturation regime where arrivals pile up
/// behind running batches and coalescing pays.
PhaseResult run_closed_loop(s::MatchService& service,
                            const std::vector<std::string>& queries,
                            std::size_t total, std::size_t clients,
                            const std::string& label) {
  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::thread> threads;
  const auto start = Clock::now();
  for (std::size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      fbf::Client client = fbf::Client::in_process(service);
      std::vector<double>& mine = latencies[t];
      mine.reserve(total / clients + 1);
      for (std::size_t i = t; i < total; i += clients) {
        const auto begin = Clock::now();
        const auto reply =
            client.match_string(queries[i % queries.size()]);
        if (reply.ok()) {
          mine.push_back(elapsed_ms(begin));
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  PhaseResult result;
  result.workload = label;
  result.wall_ms = elapsed_ms(start);
  std::vector<double> all;
  for (const std::vector<double>& mine : latencies) {
    all.insert(all.end(), mine.begin(), mine.end());
  }
  result.queries = all.size();
  result.qps = result.wall_ms > 0.0
                   ? static_cast<double>(all.size()) /
                         (result.wall_ms / 1000.0)
                   : 0.0;
  result.latency = u::summarize_latency(all);
  const fbf::telemetry::MetricsSnapshot metrics = service.metrics_snapshot();
  result.coalesced_batches =
      static_cast<std::uint64_t>(metrics.gauge("serve.batch.batches"));
  result.max_batch =
      static_cast<std::uint64_t>(metrics.gauge("serve.batch.max"));
  return result;
}

/// Open loop: arrivals scheduled at a fixed rate regardless of
/// completions (each client thread paces its own arrival sequence), the
/// regime where tail latency shows queueing, not just service time.
PhaseResult run_open_loop(s::MatchService& service,
                          const std::vector<std::string>& queries,
                          std::size_t total, std::size_t clients,
                          double target_qps, const std::string& label) {
  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::thread> threads;
  const double interarrival_ms =
      target_qps > 0.0 ? 1000.0 / target_qps * static_cast<double>(clients)
                       : 0.0;
  const auto start = Clock::now();
  for (std::size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      fbf::Client client = fbf::Client::in_process(service);
      std::vector<double>& mine = latencies[t];
      std::size_t sent = 0;
      for (std::size_t i = t; i < total; i += clients, ++sent) {
        // Absolute schedule: sleep to the arrival time, never "catch up"
        // by firing late arrivals back-to-back (that would re-create the
        // closed loop).
        const double due_ms =
            static_cast<double>(sent) * interarrival_ms;
        const double now_ms = elapsed_ms(start);
        if (due_ms > now_ms) {
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(due_ms - now_ms));
        }
        const auto begin = Clock::now();
        const auto reply =
            client.match_string(queries[i % queries.size()]);
        if (reply.ok()) {
          mine.push_back(elapsed_ms(begin));
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  PhaseResult result;
  result.workload = label;
  result.wall_ms = elapsed_ms(start);
  std::vector<double> all;
  for (const std::vector<double>& mine : latencies) {
    all.insert(all.end(), mine.begin(), mine.end());
  }
  result.queries = all.size();
  result.qps = result.wall_ms > 0.0
                   ? static_cast<double>(all.size()) /
                         (result.wall_ms / 1000.0)
                   : 0.0;
  result.latency = u::summarize_latency(all);
  return result;
}

/// TCP phase: the same queries through real loopback sockets, one
/// in-flight request per client, each client on its own kept connection.
PhaseResult run_tcp_loop(s::MatchService& service,
                         const std::vector<std::string>& queries,
                         std::size_t total, std::size_t clients,
                         const std::string& label) {
  fbf::net::ShardServerOptions server_options;
  server_options.workers = clients;
  fbf::net::ShardServer server(service.handler(), server_options);
  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::thread> threads;
  const auto start = Clock::now();
  for (std::size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      fbf::net::TcpTransportOptions transport_options;
      transport_options.port = server.port();
      fbf::Client client(
          std::make_shared<fbf::net::TcpTransport>(transport_options));
      std::vector<double>& mine = latencies[t];
      for (std::size_t i = t; i < total; i += clients) {
        const auto begin = Clock::now();
        const auto reply =
            client.match_string(queries[i % queries.size()]);
        if (reply.ok()) {
          mine.push_back(elapsed_ms(begin));
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  PhaseResult result;
  result.workload = label;
  result.wall_ms = elapsed_ms(start);
  std::vector<double> all;
  for (const std::vector<double>& mine : latencies) {
    all.insert(all.end(), mine.begin(), mine.end());
  }
  result.queries = all.size();
  result.qps = result.wall_ms > 0.0
                   ? static_cast<double>(all.size()) /
                         (result.wall_ms / 1000.0)
                   : 0.0;
  result.latency = u::summarize_latency(all);
  server.stop();
  return result;
}

/// Fault-injected transport-equivalence spot check (the bench-side twin
/// of the ServeClient property test): true when every sampled query is
/// fingerprint-equal across backends.
bool check_transport_equivalence(s::MatchService& service,
                                 const std::vector<std::string>& queries) {
  u::FaultConfig faults;
  faults.seed = 1234;
  faults.shard_fail_rate = 0.3;
  const auto in_process =
      std::make_shared<fbf::net::InProcessTransport>(service.handler(),
                                                     faults);
  fbf::net::ShardServerOptions server_options;
  server_options.faults = faults;
  server_options.injected_delay_ms = 100.0;
  fbf::net::ShardServer server(service.handler(), server_options);
  fbf::net::TcpTransportOptions transport_options;
  transport_options.port = server.port();
  transport_options.deadline_ms = 50.0;
  transport_options.faults = faults;
  const auto tcp = std::make_shared<fbf::net::TcpTransport>(transport_options);
  for (std::size_t i = 0; i < 16; ++i) {
    fbf::ClientOptions options;
    options.max_attempts = 8;
    options.shard = i;
    fbf::Client local(in_process, options);
    fbf::Client remote(tcp, options);
    const auto a = local.match_string(queries[i % queries.size()]);
    const auto b = remote.match_string(queries[i % queries.size()]);
    if (!a.ok() || !b.ok() ||
        s::match_response_fingerprint(*a) != s::match_response_fingerprint(*b)) {
      return false;
    }
  }
  server.stop();
  return true;
}

void print_phase(const PhaseResult& r) {
  std::printf("%-14s  %7zu q  %9.1f qps  p50 %7.3f ms  p99 %7.3f ms  "
              "p999 %7.3f ms  max %7.3f ms\n",
              r.workload.c_str(), r.queries, r.qps, r.latency.p50,
              r.latency.p99, r.latency.p999, r.latency.max);
}

}  // namespace

int main(int argc, char** argv) {
  const u::CliArgs args(argc, argv);
  const bool json = args.get_bool("json");
  const bool full = args.get_bool("full");
  const std::size_t n = static_cast<std::size_t>(
      args.get_int("n", full ? 1000000 : 12000));
  const std::size_t clients =
      static_cast<std::size_t>(args.get_int("clients", full ? 16 : 8));
  const std::size_t total = static_cast<std::size_t>(
      args.get_int("queries", full ? 2000 : 4000));
  const std::size_t repeats =
      static_cast<std::size_t>(args.get_int("repeats", 3));
  const std::size_t batch_threads =
      static_cast<std::size_t>(args.get_int("batch-threads", 1));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 42));
  if (const auto unknown = args.unknown_flags(); !unknown.empty()) {
    std::fprintf(stderr, "unknown flag: --%s\n", unknown.front().c_str());
    return 2;
  }
  fbf::bench::require_optimized_build_for_recording(json);

  auto built = d::build_paired_dataset(d::FieldKind::kLastName, n, seed);
  if (!built.ok()) {
    std::fprintf(stderr, "dataset: %s\n",
                 built.status().to_string().c_str());
    return 1;
  }
  const d::PairedDataset& dataset = built.value();

  // One service per coalescing configuration; same corpus, same queries.
  // Both get the same exec policy: a coalesced batch fans across
  // batch_threads workers, a batch of one cannot — that asymmetry (plus
  // block-kernel plane amortization) is the ratio under measurement.
  auto make_service = [&](std::size_t max_batch) {
    s::ServiceOptions options;
    options.query.exec.threads = batch_threads;
    options.coalescer.max_batch = max_batch;
    options.max_inflight = 4096;
    auto service = std::make_unique<s::MatchService>(
        options, std::make_shared<fbf::storage::MemObjectBackend>());
    service->index_strings(dataset.clean);
    // Measure the served route: string queries go through the block index
    // once it is published (ServiceOptions default), so every phase
    // starts after the background build.
    service->corpus().wait_for_index();
    return service;
  };

  if (!json) {
    std::printf("=== serve latency (corpus=%zu clients=%zu queries=%zu) ===\n",
                n, clients, total);
  }

  // Closed-loop phases report the best of `repeats` fresh-service runs:
  // the ratio claims service *capacity*, and best-of trims scheduler
  // noise the same way the table benches trim timing repeats.
  auto best_closed = [&](std::size_t max_batch, const std::string& label) {
    PhaseResult best;
    for (std::size_t r = 0; r < repeats; ++r) {
      auto service = make_service(max_batch);
      PhaseResult run =
          run_closed_loop(*service, dataset.error, total, clients, label);
      if (run.qps > best.qps) {
        best = run;
      }
    }
    return best;
  };

  std::vector<PhaseResult> phases;
  phases.push_back(best_closed(1, "closed-q1"));
  std::uint64_t q8_batches = 0;
  std::uint64_t q8_max_batch = 0;
  double open_target_qps = 0.0;
  bool transport_equal = false;
  phases.push_back(best_closed(c::kMaxBlockQueries, "closed-q8"));
  {
    auto q8 = make_service(c::kMaxBlockQueries);
    q8_batches = phases.back().coalesced_batches;
    q8_max_batch = phases.back().max_batch;
    open_target_qps = phases.back().qps * 0.5;
    phases.push_back(run_open_loop(*q8, dataset.error, total / 2, clients,
                                   open_target_qps, "open-q8"));
    phases.push_back(run_tcp_loop(*q8, dataset.error,
                                  std::min<std::size_t>(total / 4, 1000),
                                  std::min<std::size_t>(clients, 4), "tcp-q8"));
    transport_equal = check_transport_equivalence(*q8, dataset.error);
  }

  const double speedup =
      phases[0].qps > 0.0 ? phases[1].qps / phases[0].qps : 0.0;

  if (json) {
    std::cout << "{\n  \"bench\": \"serve_latency\",\n";
    std::cout << "  \"n\": " << n << ", \"clients\": " << clients
              << ", \"queries\": " << total << ", \"repeats\": " << repeats
              << ", \"batch_threads\": " << batch_threads
              << ", \"seed\": " << seed << ",\n";
    std::cout << "  \"q8_vs_q1_qps_ratio\": " << speedup
              << ", \"q8_batches\": " << q8_batches
              << ", \"q8_max_batch\": " << q8_max_batch
              << ", \"open_target_qps\": " << open_target_qps
              << ", \"transport_equivalent\": "
              << (transport_equal ? "true" : "false") << ",\n";
    std::cout << "  \"rows\": [\n";
    for (std::size_t i = 0; i < phases.size(); ++i) {
      const PhaseResult& r = phases[i];
      std::cout << "    {\"workload\": \"" << r.workload
                << "\", \"queries\": " << r.queries
                << ", \"wall_ms\": " << r.wall_ms << ", \"qps\": " << r.qps
                << ", \"p50_ms\": " << r.latency.p50
                << ", \"p99_ms\": " << r.latency.p99
                << ", \"p999_ms\": " << r.latency.p999
                << ", \"max_ms\": " << r.latency.max << "}"
                << (i + 1 < phases.size() ? "," : "") << "\n";
    }
    std::cout << "  ]\n}\n";
    return transport_equal ? 0 : 1;
  }

  for (const PhaseResult& r : phases) {
    print_phase(r);
  }
  std::printf("\nq8 vs q1 closed-loop qps ratio: %.2fx "
              "(q8 dispatched %llu batches, largest %llu)\n",
              speedup, static_cast<unsigned long long>(q8_batches),
              static_cast<unsigned long long>(q8_max_batch));
  std::printf("transport equivalence under faults: %s\n",
              transport_equal ? "ok" : "FAILED");
  return transport_equal ? 0 : 1;
}
