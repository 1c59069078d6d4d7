// Elastic cluster simulation (extension; DESIGN.md §12).
//
// Measures the shard driver's elastic membership layer: replica groups
// with quorum writes, query failover, and live rebalance through the
// storage manifest/base/delta chain — under scripted kills, membership
// changes and injected faults.  Every scenario re-runs the same linkage workload
// and is gated on the acceptance property from the cluster tests:
//
//   decisions byte-identical to the static fault-free run
//   (fingerprint-equal) and dropped_pairs == 0.
//
// A scenario that loses recall fails the bench (nonzero exit), so the
// recorded BENCH_sharded_elastic.json doubles as a release gate: the
// throughput/latency columns are only comparable while the equivalence
// property holds.
//
// --transport=inprocess|tcp selects the delivery backend; counters are
// transport-independent.
#include <chrono>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cluster/elastic.hpp"
#include "cluster/rebalance.hpp"
#include "cluster/service.hpp"
#include "linkage/person_gen.hpp"
#include "net/tcp.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  namespace cl = fbf::cluster;
  namespace lk = fbf::linkage;
  namespace u = fbf::util;
  const auto opts = fbf::bench::parse_options(argc, argv, /*default_n=*/400,
                                              /*default_k=*/1, {"transport"});
  const fbf::util::CliArgs extra(argc, argv);
  const std::string transport_name =
      extra.get_string("transport", "inprocess");
  if (transport_name != "inprocess" && transport_name != "tcp") {
    std::fprintf(stderr,
                 "--transport must be 'inprocess' or 'tcp' (got '%s')\n",
                 transport_name.c_str());
    return 2;
  }
  const bool use_tcp = transport_name == "tcp";
  fbf::bench::print_header("Elastic cluster linkage (extension)", opts);
  if (!opts.csv && !opts.json) {
    std::printf("transport: %s\n\n", transport_name.c_str());
  }

  fbf::util::Rng rng(opts.config.seed);
  const auto clean = lk::generate_people(opts.config.n, rng);
  const auto error = lk::make_error_records(clean, {}, rng);

  const auto base_config = [&] {
    cl::ElasticConfig config;
    config.nodes = {0, 1, 2, 3};
    config.replication = 2;
    config.write_quorum = 1;
    config.ring.seed = opts.config.seed;
    config.ring.vnodes_per_node = 8;
    config.link.comparator =
        lk::make_point_threshold_config(lk::FieldStrategy::kFpdl,
                                        opts.config.k);
    config.link.exec.threads = opts.config.threads;
    return config;
  };

  // One run through the selected backend.  The transport (and, for runs
  // with external transports, the node-hosting ClusterService) is built
  // here so its per-NetFaultKind stats survive into the artifact.
  struct RunOutput {
    cl::ElasticResult result;
    fbf::net::TransportStats transport;
    double wall_ms = 0.0;
  };
  const auto run_elastic = [&](cl::ElasticConfig config,
                               const cl::ElasticSchedule& schedule)
      -> RunOutput {
    cl::ClusterServiceOptions service_opts;
    service_opts.storage_faults = config.storage_faults;
    cl::ClusterService service(config.link, error, service_opts);
    const auto started = std::chrono::steady_clock::now();
    const auto wall_since = [&started] {
      return std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - started)
          .count();
    };
    if (!use_tcp) {
      std::optional<fbf::util::FaultConfig> faults;
      if (config.fault.has_value()) {
        faults = config.fault->faults;
      }
      fbf::net::InProcessTransport transport(service.handler(), faults);
      config.transport = &transport;
      auto result = cl::link_elastic(clean, error, config, schedule);
      return {std::move(result), transport.stats(), wall_since()};
    }
    fbf::net::ShardServerOptions server_opts;
    fbf::net::TcpTransportOptions client_opts;
    if (config.fault.has_value()) {
      server_opts.faults = config.fault->faults;
      client_opts.faults = config.fault->faults;
      // Real-time transport sleeps the backoff; keep the schedule tiny.
      config.fault->retry.backoff_base_ms = 0.25;
    }
    fbf::net::ShardServer server(service.handler(), server_opts);
    client_opts.port = server.port();
    fbf::net::TcpTransport transport(client_opts);
    config.transport = &transport;
    auto result = cl::link_elastic(clean, error, config, schedule);
    return {std::move(result), transport.stats(), wall_since()};
  };

  // The scenario ladder: a static reference, then every robustness claim
  // the cluster layer makes, each expected to keep decisions identical.
  struct Scenario {
    const char* name;
    cl::ElasticConfig config;
    cl::ElasticSchedule schedule;
  };
  std::vector<Scenario> scenarios;
  scenarios.push_back({"static fault-free", base_config(), {}});
  {
    Scenario s{"kill one replica", base_config(), {}};
    s.schedule.events.push_back(
        {cl::ElasticEvent::Kind::kKillNode, 1, 2, std::nullopt});
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s{"transient 30% net faults", base_config(), {}};
    cl::ShardFaultPolicy policy;
    policy.faults.seed = opts.config.seed;
    policy.faults.shard_fail_rate = 0.3;
    policy.retry.max_attempts = 6;
    policy.retry.full_jitter = true;
    policy.retry.jitter_seed = opts.config.seed;
    s.config.fault = policy;
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s{"add node under load", base_config(), {}};
    s.config.late_fraction = 0.3;  // catch-up deltas mid-migration
    s.schedule.events.push_back(
        {cl::ElasticEvent::Kind::kAddNode, 4, 1, std::nullopt});
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s{"add node, dest dies mid-copy", base_config(), {}};
    s.config.late_fraction = 0.3;
    cl::MigrationKill kill;
    kill.step = cl::MigrationStep::kInstallBase;
    kill.victim = cl::MigrationKill::Victim::kDest;
    s.schedule.events.push_back(
        {cl::ElasticEvent::Kind::kAddNode, 4, 1, kill});
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s{"remove node under load", base_config(), {}};
    s.config.late_fraction = 0.3;
    s.schedule.events.push_back(
        {cl::ElasticEvent::Kind::kRemoveNode, 2, 1, std::nullopt});
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s{"storage faults (torn+failed puts)", base_config(), {}};
    s.config.storage_faults.seed = opts.config.seed;
    s.config.storage_faults.put_fail_rate = 0.2;
    s.config.storage_faults.torn_write_rate = 0.1;
    scenarios.push_back(std::move(s));
  }

  struct Row {
    const char* name;
    RunOutput out;
    bool equivalent = true;
  };
  std::vector<Row> rows;
  std::uint64_t reference_fingerprint = 0;
  bool gate_ok = true;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    Row row{scenarios[i].name,
            run_elastic(scenarios[i].config, scenarios[i].schedule), true};
    const std::uint64_t fp = row.out.result.decision_fingerprint();
    if (i == 0) {
      reference_fingerprint = fp;
    }
    row.equivalent =
        fp == reference_fingerprint && row.out.result.dropped_pairs == 0;
    gate_ok = gate_ok && row.equivalent;
    rows.push_back(std::move(row));
  }

  if (opts.json) {
    std::cout << "{\n  \"bench\": \"sharded_elastic\",\n"
              << "  \"n\": " << opts.config.n << ", \"k\": " << opts.config.k
              << ", \"threads\": " << opts.config.threads
              << ", \"seed\": " << opts.config.seed
              << ", \"transport\": \"" << transport_name << "\",\n"
              << "  \"nodes\": 4, \"replication\": 2, \"write_quorum\": 1,\n"
              << "  \"scenarios\": [\n";
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const auto& row = rows[r];
      const auto& result = row.out.result;
      const auto& m = result.migration;
      const auto& t = row.out.transport;
      std::cout << "    {\"scenario\": \""
                << fbf::bench::json_escape(row.name) << "\""
                << ", \"equivalent\": " << (row.equivalent ? "true" : "false")
                << ", \"partitions\": " << result.partitions.size()
                << ", \"total_pairs\": " << result.total_pairs
                << ", \"matches\": " << result.total_matches
                << ", \"true_positives\": " << result.total_true_positives
                << ", \"dropped_pairs\": " << result.dropped_pairs
                << ", \"write_acks\": " << result.write_acks
                << ", \"write_quorum_failures\": "
                << result.write_quorum_failures
                << ", \"retries\": " << result.retries
                << ", \"failovers\": " << result.failovers
                << ", \"events_applied\": " << result.events_applied
                << ",\n     \"makespan_ms\": " << result.makespan_ms
                << ", \"sum_ms\": " << result.sum_ms
                << ", \"backoff_ms\": " << result.backoff_ms
                << ", \"wall_ms\": " << row.out.wall_ms
                << ",\n     \"migration\": {\"considered\": "
                << m.partitions_considered << ", \"completed\": " << m.completed
                << ", \"aborted\": " << m.aborted
                << ", \"base_transfers\": " << m.base_transfers
                << ", \"delta_transfers\": " << m.delta_transfers
                << ", \"bytes_moved\": " << m.bytes_moved
                << ", \"source_failovers\": " << m.source_failovers
                << ", \"orphaned_copies\": " << m.orphaned_copies << "}"
                << ",\n     \"transport_stats\": {\"calls\": " << t.calls
                << ", \"ok\": " << t.ok
                << ", \"connect_refused\": " << t.connect_refused
                << ", \"disconnects\": " << t.disconnects
                << ", \"deadline_expired\": " << t.deadline_expired
                << ", \"garbled\": " << t.garbled
                << ", \"other_errors\": " << t.other_errors << "}}"
                << (r + 1 < rows.size() ? "," : "") << "\n";
    }
    std::cout << "  ],\n  \"equivalence_gate\": "
              << (gate_ok ? "true" : "false") << "\n}\n";
    return gate_ok ? 0 : 1;
  }

  u::Table table({"scenario", "equiv", "TP", "dropped", "retries", "failover",
                  "migrated", "moved KB", "makespan ms", "backoff ms"});
  for (const auto& row : rows) {
    const auto& result = row.out.result;
    table.add_row(
        {row.name, row.equivalent ? "yes" : "NO",
         u::with_commas(static_cast<std::int64_t>(result.total_true_positives)),
         u::with_commas(static_cast<std::int64_t>(result.dropped_pairs)),
         u::with_commas(static_cast<std::int64_t>(result.retries)),
         u::with_commas(static_cast<std::int64_t>(result.failovers)),
         std::to_string(result.migration.completed),
         u::fixed(static_cast<double>(result.migration.bytes_moved) / 1024.0,
                  1),
         u::fixed(result.makespan_ms, 1), u::fixed(result.backoff_ms, 2)});
  }
  if (opts.csv) {
    table.render_csv(std::cout);
  } else {
    table.render(std::cout);
    std::printf("\n(every scenario must stay fingerprint-equal to the static "
                "run with zero dropped pairs — R=2 turns node death and "
                "rebalance into retries and failovers, never recall loss)\n");
  }
  if (!gate_ok) {
    std::fprintf(stderr, "equivalence gate FAILED: a scenario changed "
                         "decisions or dropped pairs\n");
    return 1;
  }
  return 0;
}
