// Ablations for the design choices DESIGN.md calls out:
//  1. popcount strategy inside FindDiffBits (Wegner vs POPCNT vs LUT)
//     over an FBF-only pair scan;
//  2. alphabetic signature width l = 1, 2, 4 — filter selectivity vs
//     signature cost on last names;
//  3. threshold k = 1..3 — how fast the FBF advantage erodes as the
//     filter passes more candidates (generalizes Tables 1 vs 2);
//  4. thread scaling of the parallel join (extension beyond the paper);
//  5. blocking interaction: exhaustive FPDL vs standard Soundex blocking
//     on the RL engine — candidate counts and recall (the paper's §1
//     discussion, quantified).
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/find_diff_bits.hpp"
#include "core/match_join.hpp"
#include "linkage/engine.hpp"
#include "linkage/person_gen.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

namespace c = fbf::core;
namespace dg = fbf::datagen;
namespace ex = fbf::experiments;
namespace lk = fbf::linkage;
namespace u = fbf::util;

double timed_join(const dg::PairedDataset& dataset, c::JoinConfig join,
                  int repeats, c::JoinStats* out = nullptr) {
  std::vector<double> times;
  for (int rep = 0; rep < repeats; ++rep) {
    auto stats = c::match_strings(dataset.clean, dataset.error, join);
    times.push_back(stats.join_ms);
    if (out != nullptr && rep == repeats - 1) {
      *out = std::move(stats);
    }
  }
  return u::trimmed_mean_drop_minmax(times);
}

void ablate_popcount(const fbf::bench::BenchOptions& opts) {
  // Alg. 6's FindDiffBits in isolation: an FBF-only SSN scan over
  // prebuilt signatures, one loop per popcount strategy.  The join's
  // batched tile kernel is not involved, so the rows time the strategy.
  std::printf("-- popcount strategy (FBF-only scan, SSN) --\n");
  const auto dataset =
      dg::build_paired_dataset(dg::FieldKind::kSsn, opts.config.n,
                               opts.config.seed).value();
  std::vector<c::Signature> left;
  std::vector<c::Signature> right;
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    left.push_back(
        c::make_signature(dataset.clean[i], c::FieldClass::kNumeric));
    right.push_back(
        c::make_signature(dataset.error[i], c::FieldClass::kNumeric));
  }
  const int bound = 2 * opts.config.k;
  u::Table table({"strategy", "fbf pass", "Time ms"});
  const std::pair<const char*, u::PopcountKind> kinds[] = {
      {"Wegner (Alg.6)", u::PopcountKind::kWegner},
      {"POPCNT", u::PopcountKind::kHardware},
      {"byte LUT", u::PopcountKind::kLut}};
  for (const auto& [name, kind] : kinds) {
    std::vector<double> times;
    std::uint64_t passed = 0;
    for (int rep = 0; rep < opts.config.repeats; ++rep) {
      const u::Stopwatch timer;
      passed = 0;
      for (const c::Signature& m : left) {
        for (const c::Signature& n : right) {
          passed += c::find_diff_bits(m, n, kind) <= bound ? 1u : 0u;
        }
      }
      times.push_back(timer.elapsed_ms());
    }
    table.add_row({name, u::with_commas(static_cast<std::int64_t>(passed)),
                   u::fixed(u::trimmed_mean_drop_minmax(times), 1)});
  }
  table.render(std::cout);
  std::printf("\n");
}

void ablate_alpha_words(const fbf::bench::BenchOptions& opts) {
  std::printf("-- signature width l (FPDL, LN) --\n");
  const auto dataset = dg::build_paired_dataset(
      dg::FieldKind::kLastName, opts.config.n, opts.config.seed).value();
  u::Table table({"l", "bytes/sig", "fbf pass", "verify calls", "Time ms"});
  for (const int l : {1, 2, 3, 4}) {
    auto config = opts.config;
    config.alpha_words = l;
    auto join = ex::make_join_config(dg::FieldKind::kLastName,
                                     c::Method::kFpdl, config);
    c::JoinStats stats;
    const double ms = timed_join(dataset, join, config.repeats, &stats);
    table.add_row({std::to_string(l), std::to_string(4 * l),
                   u::with_commas(static_cast<std::int64_t>(stats.fbf_pass)),
                   u::with_commas(static_cast<std::int64_t>(stats.verify_calls)),
                   u::fixed(ms, 1)});
  }
  table.render(std::cout);
  std::printf("\n");
}

void ablate_threshold(const fbf::bench::BenchOptions& opts) {
  std::printf("-- threshold k (SSN): FBF selectivity erosion --\n");
  const auto dataset = dg::build_paired_dataset(
      dg::FieldKind::kSsn, opts.config.n, opts.config.seed).value();
  u::Table table({"k", "fbf pass", "FPDL ms", "DL ms", "speedup"});
  for (const int k : {1, 2, 3}) {
    auto config = opts.config;
    config.k = k;
    auto fpdl = ex::make_join_config(dg::FieldKind::kSsn, c::Method::kFpdl,
                                     config);
    auto dl = ex::make_join_config(dg::FieldKind::kSsn, c::Method::kDl,
                                   config);
    c::JoinStats stats;
    const double fpdl_ms = timed_join(dataset, fpdl, config.repeats, &stats);
    const double dl_ms = timed_join(dataset, dl, config.repeats);
    table.add_row({std::to_string(k),
                   u::with_commas(static_cast<std::int64_t>(stats.fbf_pass)),
                   u::fixed(fpdl_ms, 1), u::fixed(dl_ms, 1),
                   u::speedup(fpdl_ms > 0 ? dl_ms / fpdl_ms : 0.0)});
  }
  table.render(std::cout);
  std::printf("\n");
}

void ablate_threads(const fbf::bench::BenchOptions& opts) {
  std::printf("-- thread scaling (FPDL, LN) — extension --\n");
  const auto dataset = dg::build_paired_dataset(
      dg::FieldKind::kLastName, opts.config.n, opts.config.seed).value();
  u::Table table({"threads", "Time ms", "scaling"});
  double base = 0.0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    auto config = opts.config;
    config.threads = threads;
    auto join = ex::make_join_config(dg::FieldKind::kLastName,
                                     c::Method::kFpdl, config);
    const double ms = timed_join(dataset, join, config.repeats);
    if (threads == 1) {
      base = ms;
    }
    table.add_row({std::to_string(threads), u::fixed(ms, 1),
                   u::speedup(ms > 0 ? base / ms : 0.0)});
  }
  table.render(std::cout);
  std::printf("(single-core hosts will show ~1.0 scaling)\n\n");
}

void ablate_blocking(const fbf::bench::BenchOptions& opts) {
  std::printf("-- blocking vs exhaustive FPDL (RL engine) --\n");
  fbf::util::Rng rng(opts.config.seed);
  const std::size_t n = opts.config.n / 2 + 1;
  const auto clean = lk::generate_people(n, rng);
  const auto error = lk::make_error_records(clean, {}, rng);
  lk::LinkConfig config;
  config.comparator = lk::make_point_threshold_config(lk::FieldStrategy::kFpdl);
  u::Table table({"candidates", "pairs", "TP", "FN", "Time ms"});
  const auto exhaustive = lk::link_exhaustive(clean, error, config);
  table.add_row({"exhaustive",
                 u::with_commas(static_cast<std::int64_t>(exhaustive.candidate_pairs)),
                 u::with_commas(static_cast<std::int64_t>(exhaustive.true_positives)),
                 u::with_commas(static_cast<std::int64_t>(exhaustive.false_negatives(n))),
                 u::fixed(exhaustive.link_ms, 1)});
  const auto std_pairs =
      lk::standard_block_pairs(clean, error, lk::block_key_soundex_lastname);
  const auto blocked = lk::link_candidates(clean, error, std_pairs, config);
  table.add_row({"soundex blocks",
                 u::with_commas(static_cast<std::int64_t>(blocked.candidate_pairs)),
                 u::with_commas(static_cast<std::int64_t>(blocked.true_positives)),
                 u::with_commas(static_cast<std::int64_t>(blocked.false_negatives(n))),
                 u::fixed(blocked.link_ms, 1)});
  table.render(std::cout);
  std::printf("(blocking trades recall — FN > 0 — for candidate count; "
              "exhaustive FPDL keeps FN at the comparator's floor)\n");
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = fbf::bench::parse_options(argc, argv, /*default_n=*/700);
  fbf::bench::print_header("Ablations", opts);
  ablate_popcount(opts);
  ablate_alpha_words(opts);
  ablate_threshold(opts);
  ablate_threads(opts);
  ablate_blocking(opts);
  return 0;
}
