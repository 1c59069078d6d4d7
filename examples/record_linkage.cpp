// Record linkage scenario: link two demographic databases without a
// reliable unique identifier — the paper's motivating application (§1).
//
//   build/examples/record_linkage [--n 800] [--seed 42] [--threads 1]
//                                 [--blocking none|standard]
//
// Generates a clean person registry and an error-injected copy (typos in
// ~35% of fields, >40% of SSNs missing), then links them with the
// point-and-threshold comparator under each field strategy the paper
// evaluates in Table 6, reporting accuracy, work saved and speedup.
#include <cstdio>
#include <string>
#include <vector>

#include "linkage/engine.hpp"
#include "linkage/person_gen.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  namespace lk = fbf::linkage;
  const fbf::util::CliArgs args(argc, argv);
  const auto n = static_cast<std::size_t>(args.get_int("n", 800));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const auto threads = static_cast<std::size_t>(args.get_int("threads", 1));
  const std::string blocking = args.get_string("blocking", "none");
  if (blocking != "none" && blocking != "standard") {
    std::fprintf(stderr, "unknown --blocking '%s' (none|standard)\n",
                 blocking.c_str());
    return 2;
  }

  fbf::util::Rng rng(seed);
  const auto clean = lk::generate_people(n, rng);
  lk::RecordErrorModel model;  // defaults mirror the paper's data quality
  const auto error = lk::make_error_records(clean, model, rng);
  std::printf("linking %zu clean records against %zu error records "
              "(blocking=%s)\n\n",
              clean.size(), error.size(), blocking.c_str());

  std::vector<lk::CandidatePair> candidates;
  if (blocking == "standard") {
    candidates = lk::standard_block_pairs(clean, error,
                                          lk::block_key_soundex_lastname);
  }

  const lk::FieldStrategy strategies[] = {
      lk::FieldStrategy::kDl, lk::FieldStrategy::kPdl,
      lk::FieldStrategy::kFdl, lk::FieldStrategy::kFpdl,
      lk::FieldStrategy::kFbfOnly};
  double baseline_ms = 0.0;
  std::printf("%-6s %10s %6s %6s %6s %12s %12s %8s\n", "strat", "pairs", "TP",
              "FP", "FN", "verify", "time ms", "speedup");
  for (const auto strategy : strategies) {
    lk::LinkConfig config;
    config.comparator = lk::make_point_threshold_config(strategy);
    config.exec.threads = threads;
    const lk::LinkStats stats =
        blocking == "none"
            ? lk::link_exhaustive(clean, error, config)
            : lk::link_candidates(clean, error, candidates, config);
    const double total_ms = stats.link_ms;
    if (strategy == lk::FieldStrategy::kDl) {
      baseline_ms = total_ms;
    }
    std::printf("%-6s %10llu %6llu %6llu %6llu %12llu %12.1f %8.2f\n",
                lk::field_strategy_name(strategy),
                static_cast<unsigned long long>(stats.candidate_pairs),
                static_cast<unsigned long long>(stats.true_positives),
                static_cast<unsigned long long>(stats.false_positives),
                static_cast<unsigned long long>(stats.false_negatives(n)),
                static_cast<unsigned long long>(stats.counters.verify_calls),
                total_ms, total_ms > 0 ? baseline_ms / total_ms : 0.0);
  }
  std::printf("\nNote: FDL/FPDL rows reproduce DL's TP/FP/FN exactly — the "
              "filter only removes guaranteed non-matches.\n");
  return 0;
}
