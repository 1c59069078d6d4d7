// Deduplication scenario: find near-duplicate entries inside ONE noisy list.
//
//   build/examples/dedup_names [--n 2000] [--dupe-rate 0.15] [--k 1]
//                              [--seed 42] [--method FPDL]
//
// Simulates a registry in which a fraction of entries are misspelled
// duplicates of existing names (the paper's motivating data-quality
// problem), then self-joins the list with a filtered comparator and
// reports precision/recall against the known duplicate injections plus the
// work the filter saved.
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "core/fbf.hpp"
#include "datagen/errors.hpp"
#include "datagen/names.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  namespace c = fbf::core;
  namespace dg = fbf::datagen;
  const fbf::util::CliArgs args(argc, argv);
  const auto n = static_cast<std::size_t>(args.get_int("n", 2000));
  const double dupe_rate = args.get_double("dupe-rate", 0.15);
  const int k = static_cast<int>(args.get_int("k", 1));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const std::string method_name = args.get_string("method", "FPDL");
  const auto method = c::parse_method(method_name);
  if (!method) {
    std::fprintf(stderr, "unknown method: %s\n", method_name.c_str());
    return 1;
  }

  // Base list of unique names, then inject misspelled duplicates.
  fbf::util::Rng rng(seed);
  const auto base_count = static_cast<std::size_t>(
      static_cast<double>(n) * (1.0 - dupe_rate));
  const auto pool = dg::build_last_name_pool(4 * n, rng);
  std::vector<std::string> list = dg::sample_from_pool(pool, base_count, rng);
  std::set<std::pair<std::uint32_t, std::uint32_t>> truth;
  while (list.size() < n) {
    const auto src = static_cast<std::uint32_t>(rng.below(base_count));
    truth.emplace(src, static_cast<std::uint32_t>(list.size()));
    list.push_back(
        dg::inject_single_edit(list[src], dg::Alphabet::kUpperAlpha, rng));
  }
  std::printf("list: %zu entries, %zu injected misspelled duplicates\n",
              list.size(), truth.size());

  c::JoinConfig config;
  config.method = *method;
  config.k = k;
  config.field_class = c::FieldClass::kAlpha;
  config.collect_matches = true;
  const fbf::util::Stopwatch timer;
  const auto stats = c::match_strings(list, list, config);
  const double elapsed = timer.elapsed_ms();

  // Self-join: keep i < j pairs, drop the trivial diagonal.
  std::size_t reported = 0;
  std::size_t hits = 0;
  for (const auto& [i, j] : stats.match_pairs) {
    if (i >= j) {
      continue;
    }
    ++reported;
    if (truth.count({i, j}) != 0) {
      ++hits;
    }
  }
  const double precision =
      reported == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(reported);
  const double recall =
      truth.empty() ? 0.0 : static_cast<double>(hits) / static_cast<double>(truth.size());

  std::printf("method=%s k=%d  %.1f ms total (gen %.2f ms)\n",
              c::method_name(*method), k, elapsed, stats.signature_gen_ms);
  std::printf("candidate pairs: %llu  fbf evaluated: %llu  pruned: %llu  "
              "verify calls: %llu\n",
              static_cast<unsigned long long>(stats.pairs),
              static_cast<unsigned long long>(stats.fbf_evaluated),
              static_cast<unsigned long long>(stats.fbf_evaluated -
                                              stats.fbf_pass),
              static_cast<unsigned long long>(stats.verify_calls));
  std::printf("duplicate pairs reported: %zu  true duplicates found: %zu\n",
              reported, hits);
  std::printf("precision=%.3f  recall=%.3f\n", precision, recall);
  // Recall is 1.0 by the paper's no-false-negative guarantee whenever the
  // verifier is DL/PDL and every duplicate is a single edit.

  return 0;
}
