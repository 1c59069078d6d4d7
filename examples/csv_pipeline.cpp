// End-to-end pipeline on CSV files — the shape of a real deployment:
// export two databases to disk, load them back, link them sharded across
// simulated nodes, and write the matched pairs out.
//
//   build/examples/csv_pipeline [--n 600] [--seed 42] [--shards 4]
//                               [--dir /tmp]
//
// Produces <dir>/fbf_clean.csv, <dir>/fbf_error.csv and
// <dir>/fbf_matches.csv.  Exits nonzero when a file cannot be opened,
// written or read (say, --dir does not exist), or when the sharded run's
// match or true-positive totals differ from the single-pass link that
// writes the match file.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <numeric>
#include <string>

#include "cluster/elastic.hpp"
#include "linkage/csv_io.hpp"
#include "linkage/person_gen.hpp"
#include "linkage/standardize.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"

namespace {

/// Writes `path` through `fill`.  False, with the path on stderr, when the
/// file cannot be opened or the write does not reach it.
template <class Fill>
bool write_file(const std::string& path, Fill&& fill) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  fill(out);
  out.close();
  if (!out) {
    std::fprintf(stderr, "write to %s failed\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  namespace lk = fbf::linkage;
  const fbf::util::CliArgs args(argc, argv);
  const auto n = static_cast<std::size_t>(args.get_int("n", 600));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const auto shards = static_cast<std::size_t>(
      std::max<std::int64_t>(1, args.get_int("shards", 4)));
  const std::string dir = args.get_string("dir", "/tmp");
  const auto unknown = args.unknown_flags();
  if (!unknown.empty()) {
    std::fprintf(stderr, "unknown flag: --%s\n", unknown.front().c_str());
    return 2;
  }

  // 1. Export: two "databases" on disk.
  fbf::util::Rng rng(seed);
  const auto clean = lk::generate_people(n, rng);
  const auto error = lk::make_error_records(clean, {}, rng);
  const std::string clean_path = dir + "/fbf_clean.csv";
  const std::string error_path = dir + "/fbf_error.csv";
  if (!write_file(clean_path, [&](std::ostream& out) {
        lk::write_person_csv(out, clean);
      }) ||
      !write_file(error_path, [&](std::ostream& out) {
        lk::write_person_csv(out, error);
        // Real exports are dirty: sprinkle in rows a strict loader would
        // choke on.  The quarantine loader must survive them.
        out << "not_a_number,GARBLED,ROW,,,,,\n";
        out << "truncated,row\n";
        out << ",,,,,,,\n";
      })) {
    return 1;
  }
  std::printf("wrote %s and %s (%zu records each; 3 dirty rows in the "
              "error file)\n",
              clean_path.c_str(), error_path.c_str(), n);

  // 2. Import (as a fresh consumer would): dirty rows are quarantined
  // with line numbers instead of aborting the load, then standardize —
  // a no-op on our generated data, but the step real exports need
  // (mixed case, punctuation, formatted phones/dates).
  std::ifstream clean_in(clean_path);
  std::ifstream error_in(error_path);
  if (!clean_in || !error_in) {
    std::fprintf(stderr, "cannot open %s for reading\n",
                 (!clean_in ? clean_path : error_path).c_str());
    return 1;
  }
  auto left_load = lk::read_person_csv(clean_in);
  if (!left_load.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 left_load.status().to_string().c_str());
    return 1;
  }
  auto left = std::move(left_load).value();
  const auto right_load = lk::read_person_csv_quarantine(error_in);
  if (!right_load.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 right_load.status().to_string().c_str());
    return 1;
  }
  if (clean_in.bad() || error_in.bad()) {
    std::fprintf(stderr, "read from %s failed\n",
                 (clean_in.bad() ? clean_path : error_path).c_str());
    return 1;
  }
  auto right = right_load.value().records;
  std::printf("quarantine report: %zu of %zu rows rejected\n",
              right_load.value().quarantined.size(),
              right_load.value().rows_read);
  for (const auto& bad : right_load.value().quarantined) {
    std::printf("  line %zu: %s\n", bad.line, bad.reason.c_str());
  }
  for (auto& r : left) {
    lk::standardize_record(r);
  }
  for (auto& r : right) {
    lk::standardize_record(r);
  }
  std::printf("loaded and standardized %zu + %zu records\n", left.size(),
              right.size());

  // 3. Link, sharded across simulated nodes: a static cluster is the
  // elastic driver with one replica per partition and no membership
  // events.  The right list is broadcast to every node, so the sharded
  // totals must equal a single-pass link.
  namespace cl = fbf::cluster;
  cl::ElasticConfig config;
  config.nodes.resize(shards);
  std::iota(config.nodes.begin(), config.nodes.end(), cl::NodeId{0});
  config.replication = 1;
  config.link.comparator =
      lk::make_point_threshold_config(lk::FieldStrategy::kFpdl);
  const auto result = cl::link_elastic(left, right, config);

  struct NodeRow {
    std::size_t partitions = 0;
    std::size_t left = 0;
    std::uint64_t pairs = 0;
    std::uint64_t matches = 0;
  };
  std::map<cl::NodeId, NodeRow> by_node;
  for (const auto& p : result.partitions) {
    NodeRow& row = by_node[p.served_by];
    ++row.partitions;
    row.left += p.records;
    row.pairs += p.pairs;
    row.matches += p.matches;
  }
  std::printf("\nshards=%zu (%zu ring partitions)\n", shards,
              result.partitions.size());
  std::printf("%-6s %10s %10s %10s %8s %10s\n", "node", "partitions", "left",
              "pairs", "matches", "time ms");
  for (const auto& replica : result.replicas) {
    const NodeRow& row = by_node[replica.node];
    std::printf("%-6u %10zu %10zu %10llu %8llu %10.1f\n", replica.node,
                row.partitions, row.left,
                static_cast<unsigned long long>(row.pairs),
                static_cast<unsigned long long>(row.matches),
                replica.busy_ms);
  }
  std::printf("total: pairs=%llu matches=%llu true=%llu  makespan=%.1f ms "
              "(sum %.1f ms)\n",
              static_cast<unsigned long long>(result.total_pairs),
              static_cast<unsigned long long>(result.total_matches),
              static_cast<unsigned long long>(result.total_true_positives),
              result.makespan_ms, result.sum_ms);
  std::printf("recall vs %zu true pairs: %.3f\n", n,
              static_cast<double>(result.total_true_positives) /
                  static_cast<double>(n));

  // 4. Export the match pairs (ids only; partitions reply with counters,
  // not pair lists, so one single-pass link produces the file).
  lk::LinkConfig flat = config.link;
  flat.collect_matches = true;
  const auto stats = lk::link_exhaustive(left, right, flat);
  const std::string match_path = dir + "/fbf_matches.csv";
  if (!write_file(match_path, [&](std::ostream& out) {
        fbf::util::write_csv_row(out, {"left_id", "right_id"});
        for (const auto& [i, j] : stats.match_pairs) {
          fbf::util::write_csv_row(out, {std::to_string(left[i].id),
                                         std::to_string(right[j].id)});
        }
      })) {
    return 1;
  }
  std::printf("wrote %s (%zu pairs)\n", match_path.c_str(),
              stats.match_pairs.size());

  if (result.total_matches != stats.matches ||
      result.total_true_positives != stats.true_positives) {
    std::fprintf(stderr,
                 "sharded totals differ from the single pass: matches %llu "
                 "vs %llu, true %llu vs %llu\n",
                 static_cast<unsigned long long>(result.total_matches),
                 static_cast<unsigned long long>(stats.matches),
                 static_cast<unsigned long long>(result.total_true_positives),
                 static_cast<unsigned long long>(stats.true_positives));
    return 1;
  }
  return 0;
}
