// Generate→filter→verify join bench (DESIGN.md §14).
//
// The two candidate-generation routes, identical match sets: the dense
// tile scan (the paper's FPDL join) and the pigeonhole block index, both
// through match_strings over the same paired lists.  Expected shape: the
// scan's O(n^2) filter calls win at small n (index build and probe
// constants dominate), the block index crosses over as n grows, and its
// end-to-end gap widens roughly linearly in n past the crossover.  The
// table prints total (build + join) times and the speedup vs the scan;
// --json emits the BENCH_index_join.json perf-trajectory record with the
// crossover point and the block index's generation selectivity
// (candidates_generated / pairs).
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/match_join.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

namespace c = fbf::core;
namespace dg = fbf::datagen;
namespace ex = fbf::experiments;
namespace u = fbf::util;

/// One generator's end-to-end result at one n.
struct Outcome {
  std::string name;
  double build_ms = 0.0;  ///< signature + index construction
  double join_ms = 0.0;   ///< generate + filter + verify
  std::uint64_t candidates = 0;  ///< pairs admitted by the generate stage
  std::uint64_t matches = 0;

  [[nodiscard]] double total_ms() const noexcept {
    return build_ms + join_ms;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const auto opts = fbf::bench::parse_options(argc, argv, /*default_n=*/0);
  fbf::bench::print_header(
      "Generate-filter-verify join: dense scan vs block index (LN)", opts);

  const int k = opts.config.k;
  const std::vector<std::size_t> ns =
      opts.full
          ? std::vector<std::size_t>{1000, 2000, 5000, 10000, 20000, 50000}
          : std::vector<std::size_t>{500, 1000, 2000, 4000};

  u::Table table({"n", "scan ms", "block ms", "block spd", "block candidates",
                  "matches eq"});
  struct Row {
    std::size_t n = 0;
    std::uint64_t pairs = 0;
    Outcome scan;
    Outcome block;
    [[nodiscard]] bool matches_equal() const noexcept {
      return scan.matches == block.matches;
    }
  };
  std::vector<Row> rows;

  for (const std::size_t n : ns) {
    auto config = opts.config;
    config.n = n;
    const auto dataset = ex::build_dataset(dg::FieldKind::kLastName, config);
    Row row;
    row.n = n;
    row.pairs = static_cast<std::uint64_t>(n) * n;

    // Both joins run through match_strings so the timings include
    // everything the real consumers pay (the block's build_ms includes
    // the index construction); both are repeated and trimmed like the
    // paper's protocol.
    auto join = ex::make_join_config(dg::FieldKind::kLastName,
                                     c::Method::kFpdl, config);
    auto run_join = [&](const char* name, c::GeneratorKind generator) {
      Outcome out;
      out.name = name;
      join.generator = generator;
      std::vector<double> gen_times;
      std::vector<double> join_times;
      c::JoinStats last;
      for (int rep = 0; rep < config.repeats; ++rep) {
        last = c::match_strings(dataset.clean, dataset.error, join);
        gen_times.push_back(last.signature_gen_ms);
        join_times.push_back(last.join_ms);
      }
      // Trim gen and join independently; their sum is then a stable
      // end-to-end number (a single matched split would inherit one
      // rep's noise).
      out.build_ms = u::trimmed_mean_drop_minmax(gen_times);
      out.join_ms = u::trimmed_mean_drop_minmax(join_times);
      out.candidates = last.candidates_generated;
      out.matches = last.matches;
      return out;
    };
    row.scan = run_join("tile-scan", c::GeneratorKind::kDense);
    row.block = run_join("block-index", c::GeneratorKind::kBlockIndex);

    table.add_row(
        {u::with_commas(static_cast<std::int64_t>(n)),
         u::fixed(row.scan.total_ms(), 1), u::fixed(row.block.total_ms(), 1),
         u::speedup(row.block.total_ms() > 0
                        ? row.scan.total_ms() / row.block.total_ms()
                        : 0.0),
         u::with_commas(static_cast<std::int64_t>(row.block.candidates)),
         row.matches_equal() ? "yes" : "NO"});
    rows.push_back(std::move(row));
  }

  // Crossover: the smallest benched n where the block index's end-to-end
  // time beats the dense scan.
  std::optional<std::size_t> crossover;
  for (const Row& row : rows) {
    if (row.block.total_ms() < row.scan.total_ms()) {
      crossover = row.n;
      break;
    }
  }

  if (opts.json) {
    std::ostream& os = std::cout;
    os << "{\n  \"bench\": \"index_join\",\n";
    os << "  \"k\": " << k << ", \"threads\": " << opts.config.threads
       << ", \"repeats\": " << opts.config.repeats
       << ", \"seed\": " << opts.config.seed << ",\n";
    os << "  \"crossover_n\": "
       << (crossover ? std::to_string(*crossover) : "null") << ",\n";
    os << "  \"rows\": [\n";
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const Row& row = rows[r];
      os << "    {\"n\": " << row.n << ", \"pairs\": " << row.pairs
         << ", \"matches_equal\": "
         << (row.matches_equal() ? "true" : "false") << ", \"generators\": [";
      const double scan_total = row.scan.total_ms();
      bool first = true;
      for (const Outcome* o : {&row.scan, &row.block}) {
        const double selectivity =
            row.pairs > 0
                ? static_cast<double>(o->candidates) /
                      static_cast<double>(row.pairs)
                : 0.0;
        os << (first ? "" : ", ") << "\n      {\"name\": \""
           << fbf::bench::json_escape(o->name) << "\", \"build_ms\": "
           << o->build_ms << ", \"join_ms\": " << o->join_ms
           << ", \"total_ms\": " << o->total_ms()
           << ", \"speedup_vs_scan\": "
           << (o->total_ms() > 0 ? scan_total / o->total_ms() : 0.0)
           << ", \"candidates\": " << o->candidates
           << ", \"selectivity\": " << selectivity
           << ", \"matches\": " << o->matches << "}";
        first = false;
      }
      os << "\n    ]}" << (r + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return 0;
  }

  if (opts.csv) {
    table.render_csv(std::cout);
  } else {
    table.render(std::cout);
    if (crossover) {
      std::printf("\n(block index beats the dense scan from n=%zu; both "
                  "routes verify to the identical match set)\n",
                  *crossover);
    } else {
      std::printf("\n(no crossover in the benched range — increase n with "
                  "--full)\n");
    }
  }
  return 0;
}
