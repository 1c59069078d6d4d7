#include "core/match_join.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/find_diff_bits.hpp"
#include "datagen/dataset.hpp"
#include "experiments/protocol.hpp"
#include "metrics/damerau.hpp"
#include "metrics/length_filter.hpp"
#include "metrics/pdl.hpp"
#include "testenv.hpp"
#include "util/bitops.hpp"

namespace {

using fbf::core::FieldClass;
using fbf::core::JoinConfig;
using fbf::core::JoinStats;
using fbf::core::match_strings;
using fbf::core::Method;
using fbf::util::PopcountKind;

std::vector<std::string> small_clean() {
  return {"SMITH", "JONES", "TAYLOR", "BROWN", "WILSON"};
}

std::vector<std::string> small_error() {
  // One edit each, index-aligned.
  return {"SMIHT", "JONE", "TAYLORS", "BROWNE", "WILSON"};
}

JoinConfig base_config(Method method) {
  JoinConfig config;
  config.method = method;
  config.k = 1;
  config.field_class = FieldClass::kAlpha;
  return config;
}

TEST(MatchJoin, DlFindsAllDiagonalPairs) {
  const auto stats =
      match_strings(small_clean(), small_error(), base_config(Method::kDl));
  EXPECT_EQ(stats.pairs, 25u);
  EXPECT_EQ(stats.diagonal_matches, 5u);
  EXPECT_EQ(stats.type2(5), 0u);
}

TEST(MatchJoin, FilterLadderMethodsAgreeWithDl) {
  const auto baseline =
      match_strings(small_clean(), small_error(), base_config(Method::kDl));
  for (const Method method :
       {Method::kPdl, Method::kFdl, Method::kFpdl, Method::kLdl,
        Method::kLpdl, Method::kLfdl, Method::kLfpdl}) {
    const auto stats =
        match_strings(small_clean(), small_error(), base_config(method));
    EXPECT_EQ(stats.matches, baseline.matches)
        << fbf::core::method_name(method);
    EXPECT_EQ(stats.diagonal_matches, baseline.diagonal_matches)
        << fbf::core::method_name(method);
  }
}

TEST(MatchJoin, FilterOnlyMethodsAreSupersets) {
  const auto dl =
      match_strings(small_clean(), small_error(), base_config(Method::kDl));
  for (const Method method :
       {Method::kFbfOnly, Method::kLengthOnly, Method::kLfbfOnly}) {
    const auto stats =
        match_strings(small_clean(), small_error(), base_config(method));
    EXPECT_GE(stats.matches, dl.matches) << fbf::core::method_name(method);
    EXPECT_EQ(stats.diagonal_matches, 5u) << fbf::core::method_name(method);
  }
}

TEST(MatchJoin, CountersAccounting) {
  // Dense-path counter identities (every pair hits the filter), so the
  // generation path must not be rerouted by a forced-generator CI leg.
  const fbf::testenv::ScopedForceGenerator clear_env(nullptr);
  const auto stats =
      match_strings(small_clean(), small_error(), base_config(Method::kFpdl));
  EXPECT_EQ(stats.fbf_evaluated, 25u);        // every pair hits the filter
  EXPECT_EQ(stats.verify_calls, stats.fbf_pass);  // survivors get verified
  EXPECT_LE(stats.matches, stats.verify_calls);
  EXPECT_GT(stats.signature_gen_ms, 0.0);
}

TEST(MatchJoin, LengthThenFbfCountsFbfOnlyOnLengthSurvivors) {
  const auto stats =
      match_strings(small_clean(), small_error(), base_config(Method::kLfpdl));
  EXPECT_EQ(stats.fbf_evaluated, stats.length_pass);
  EXPECT_LE(stats.length_pass, stats.pairs);
}

TEST(MatchJoin, CollectMatchesReturnsPairs) {
  JoinConfig config = base_config(Method::kDl);
  config.collect_matches = true;
  const auto stats = match_strings(small_clean(), small_error(), config);
  EXPECT_EQ(stats.match_pairs.size(), stats.matches);
  // Every diagonal pair must appear.
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_NE(std::find(stats.match_pairs.begin(), stats.match_pairs.end(),
                        std::make_pair(i, i)),
              stats.match_pairs.end());
  }
}

TEST(MatchJoin, ThreadCountDoesNotChangeResults) {
  // The parallel join must be a pure performance knob.
  const auto dataset = fbf::datagen::build_paired_dataset(
      fbf::datagen::FieldKind::kLastName, 200, 77).value();
  for (const Method method : {Method::kDl, Method::kFpdl, Method::kLfpdl,
                              Method::kJaro, Method::kSoundex}) {
    JoinConfig config = base_config(method);
    config.threads = 1;
    const auto serial = match_strings(dataset.clean, dataset.error, config);
    config.threads = 4;
    const auto parallel = match_strings(dataset.clean, dataset.error, config);
    EXPECT_EQ(parallel.matches, serial.matches)
        << fbf::core::method_name(method);
    EXPECT_EQ(parallel.diagonal_matches, serial.diagonal_matches);
    EXPECT_EQ(parallel.fbf_pass, serial.fbf_pass);
    EXPECT_EQ(parallel.verify_calls, serial.verify_calls);
    EXPECT_EQ(parallel.length_pass, serial.length_pass);
  }
}

TEST(MatchJoin, JaroThresholdControlsMatches) {
  JoinConfig strict = base_config(Method::kJaro);
  strict.sim_threshold = 0.99;
  JoinConfig loose = base_config(Method::kJaro);
  loose.sim_threshold = 0.5;
  const auto strict_stats =
      match_strings(small_clean(), small_error(), strict);
  const auto loose_stats = match_strings(small_clean(), small_error(), loose);
  EXPECT_LE(strict_stats.matches, loose_stats.matches);
}

TEST(MatchJoin, SoundexPrecomputesCodes) {
  const auto stats = match_strings(small_clean(), small_error(),
                                   base_config(Method::kSoundex));
  EXPECT_GE(stats.signature_gen_ms, 0.0);
  // SMITH/SMIHT share a code; WILSON matches itself.
  EXPECT_GE(stats.diagonal_matches, 2u);
}

TEST(MatchJoin, EmptyInputsProduceEmptyStats) {
  const std::vector<std::string> empty;
  const auto stats = match_strings(empty, empty, base_config(Method::kDl));
  EXPECT_EQ(stats.pairs, 0u);
  EXPECT_EQ(stats.matches, 0u);
}

TEST(MatchJoin, AsymmetricListSizes) {
  const std::vector<std::string> left = {"SMITH", "JONES"};
  const std::vector<std::string> right = {"SMITH"};
  const auto stats = match_strings(left, right, base_config(Method::kFpdl));
  EXPECT_EQ(stats.pairs, 2u);
  EXPECT_EQ(stats.matches, 1u);
}

// On a realistic dataset: every FBF/length variant must reproduce DL's
// exact match set — the paper's zero-accuracy-loss claim at join level.
class JoinEquivalence
    : public ::testing::TestWithParam<fbf::datagen::FieldKind> {};

TEST_P(JoinEquivalence, FilteredMethodsLoseNothing) {
  const auto kind = GetParam();
  const auto dataset = fbf::datagen::build_paired_dataset(kind, 150, 99).value();
  fbf::experiments::ExperimentConfig exp;
  exp.k = 1;
  const auto base_join =
      fbf::experiments::make_join_config(kind, Method::kDl, exp);
  const auto baseline =
      match_strings(dataset.clean, dataset.error, base_join);
  for (const Method method :
       {Method::kPdl, Method::kFdl, Method::kFpdl, Method::kLfdl,
        Method::kLfpdl}) {
    auto join = fbf::experiments::make_join_config(kind, method, exp);
    const auto stats = match_strings(dataset.clean, dataset.error, join);
    EXPECT_EQ(stats.matches, baseline.matches)
        << fbf::core::method_name(method) << " on "
        << fbf::datagen::field_kind_name(kind);
    EXPECT_EQ(stats.diagonal_matches, baseline.diagonal_matches);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFields, JoinEquivalence,
    ::testing::Values(fbf::datagen::FieldKind::kFirstName,
                      fbf::datagen::FieldKind::kLastName,
                      fbf::datagen::FieldKind::kAddress,
                      fbf::datagen::FieldKind::kPhone,
                      fbf::datagen::FieldKind::kBirthDate,
                      fbf::datagen::FieldKind::kSsn),
    [](const auto& param_info) {
      return std::string(fbf::datagen::field_kind_name(param_info.param));
    });

void expect_same_stats(const JoinStats& a, const JoinStats& b,
                       const std::string& label) {
  EXPECT_EQ(a.pairs, b.pairs) << label;
  EXPECT_EQ(a.candidates_generated, b.candidates_generated) << label;
  EXPECT_EQ(a.length_pass, b.length_pass) << label;
  EXPECT_EQ(a.fbf_evaluated, b.fbf_evaluated) << label;
  EXPECT_EQ(a.fbf_pass, b.fbf_pass) << label;
  EXPECT_EQ(a.verify_calls, b.verify_calls) << label;
  EXPECT_EQ(a.matches, b.matches) << label;
  EXPECT_EQ(a.diagonal_matches, b.diagonal_matches) << label;
  EXPECT_EQ(a.match_pairs, b.match_pairs) << label;
}

/// Independent per-pair ladder for the FBF methods (paper Algorithm 7,
/// one pair at a time): the length filter when the method has one, then
/// find_diff_bits over make_signature with the given popcount strategy,
/// then the method's verifier.  The join must reproduce its counters and
/// match pairs whichever filter kernel the layout selects.
JoinStats reference_ladder(const std::vector<std::string>& left,
                           const std::vector<std::string>& right,
                           const JoinConfig& config, PopcountKind kind) {
  const auto sigs = [&](const std::vector<std::string>& side) {
    std::vector<fbf::core::Signature> out;
    for (const std::string& s : side) {
      out.push_back(fbf::core::make_signature(s, config.field_class,
                                              config.alpha_words));
    }
    return out;
  };
  const auto left_sigs = sigs(left);
  const auto right_sigs = sigs(right);
  const int k = config.k;
  JoinStats stats;
  stats.pairs = static_cast<std::uint64_t>(left.size()) * right.size();
  for (std::uint32_t i = 0; i < left.size(); ++i) {
    for (std::uint32_t j = 0; j < right.size(); ++j) {
      ++stats.candidates_generated;
      if (fbf::core::method_uses_length(config.method)) {
        if (!fbf::metrics::length_filter_pass(left[i], right[j], k)) {
          continue;
        }
        ++stats.length_pass;
      }
      ++stats.fbf_evaluated;
      if (fbf::core::find_diff_bits(left_sigs[i], right_sigs[j], kind) >
          2 * k) {
        continue;
      }
      ++stats.fbf_pass;
      bool match = true;
      switch (fbf::core::method_verifier(config.method)) {
        case fbf::core::Verifier::kNone:
          break;
        case fbf::core::Verifier::kDl:
          ++stats.verify_calls;
          match = fbf::metrics::dl_within(left[i], right[j], k);
          break;
        case fbf::core::Verifier::kPdl:
          ++stats.verify_calls;
          match = fbf::metrics::pdl_within(left[i], right[j], k);
          break;
      }
      if (match) {
        ++stats.matches;
        stats.diagonal_matches += i == j ? 1 : 0;
        stats.match_pairs.emplace_back(i, j);
      }
    }
  }
  return stats;
}

// The tentpole property: the FBF join — packed SoA planes + batched tile
// kernel on every supported layout — must produce IDENTICAL counters and
// match sets to the per-pair ladder for every field class, threshold,
// popcount strategy and thread count.  Dense generation is pinned: the
// ladder charges every pair.
TEST(PackedTiledJoin, IdenticalToScalarScanEverywhere) {
  const fbf::testenv::ScopedForceGenerator clear_env(nullptr);
  const struct {
    fbf::datagen::FieldKind kind;
    std::size_t n;
  } datasets[] = {{fbf::datagen::FieldKind::kSsn, 180},
                  {fbf::datagen::FieldKind::kLastName, 180},
                  {fbf::datagen::FieldKind::kAddress, 120}};
  for (const auto& d : datasets) {
    const auto dataset = fbf::datagen::build_paired_dataset(d.kind, d.n, 321).value();
    for (const Method method :
         {Method::kFpdl, Method::kFdl, Method::kLfpdl, Method::kFbfOnly,
          Method::kLfbfOnly}) {
      for (const int k : {1, 2, 3}) {
        fbf::experiments::ExperimentConfig exp;
        exp.k = k;
        auto join = fbf::experiments::make_join_config(d.kind, method, exp);
        join.collect_matches = true;
        for (const PopcountKind popcount :
             {PopcountKind::kWegner, PopcountKind::kHardware,
              PopcountKind::kLut}) {
          const auto reference =
              reference_ladder(dataset.clean, dataset.error, join, popcount);
          for (const std::size_t threads : {std::size_t{1}, std::size_t{4},
                                            std::size_t{7}}) {
            join.threads = threads;
            const auto stats =
                match_strings(dataset.clean, dataset.error, join);
            const std::string label =
                std::string(fbf::datagen::field_kind_name(d.kind)) + "/" +
                fbf::core::method_name(method) + " k=" + std::to_string(k) +
                " pc=" + fbf::util::popcount_kind_name(popcount) +
                " t=" + std::to_string(threads);
            EXPECT_TRUE(std::string(stats.kernel).starts_with("tile-"))
                << label << ": " << stats.kernel;
            expect_same_stats(reference, stats, label);
          }
        }
      }
    }
  }
}

// The layout alone picks the path: alpha l > 2 overflows the 64-bit
// plane, so those joins run the per-pair scan ("pair-scalar") while the
// supported l = 2 layout runs a tile kernel — and both equal the ladder.
TEST(PackedTiledJoin, WideAlphaFallsBackToScan) {
  const fbf::testenv::ScopedForceGenerator clear_env(nullptr);
  const auto dataset = fbf::datagen::build_paired_dataset(
      fbf::datagen::FieldKind::kLastName, 150, 55).value();
  for (const int alpha_words : {2, 3, 4}) {
    JoinConfig join = base_config(Method::kFpdl);
    join.alpha_words = alpha_words;
    join.collect_matches = true;
    const auto reference = reference_ladder(dataset.clean, dataset.error,
                                            join, PopcountKind::kHardware);
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{4}, std::size_t{7}}) {
      join.threads = threads;
      const auto stats = match_strings(dataset.clean, dataset.error, join);
      const std::string label = "alpha_words=" + std::to_string(alpha_words) +
                                " t=" + std::to_string(threads);
      expect_same_stats(reference, stats, label);
      if (alpha_words > 2) {
        EXPECT_STREQ(stats.kernel, "pair-scalar") << label;
      } else {
        EXPECT_TRUE(std::string(stats.kernel).starts_with("tile-"))
            << label << ": " << stats.kernel;
      }
    }
  }
}

// Regression for the pre-tiling scheduler: chunking by rows of S capped
// parallelism at |S|, so a 2 x 100,000 probe join ran near-serial.  Tiles
// are the work unit now; a skewed join must schedule at least as many
// units as threads (and produce correct results).
TEST(PackedTiledJoin, SkewedJoinSchedulesManyWorkUnits) {
  constexpr std::size_t kRight = 100000;
  ASSERT_GE(fbf::core::join_tile_count(2, kRight), 256u);
  const auto dataset = fbf::datagen::build_paired_dataset(
      fbf::datagen::FieldKind::kSsn, kRight, 7).value();
  const std::vector<std::string> probes = {dataset.clean[0],
                                           dataset.clean[1]};
  JoinConfig config = base_config(Method::kFbfOnly);
  config.field_class = FieldClass::kNumeric;
  config.threads = 4;
  const auto stats = match_strings(probes, dataset.error, config);
  EXPECT_EQ(stats.pairs, 2u * kRight);
  EXPECT_GE(stats.tiles, config.threads)
      << "skewed join degenerated below the thread count";
  // Same counters as the serial run.
  JoinConfig serial = config;
  serial.threads = 1;
  const auto serial_stats = match_strings(probes, dataset.error, serial);
  EXPECT_EQ(stats.fbf_pass, serial_stats.fbf_pass);
  EXPECT_EQ(stats.matches, serial_stats.matches);
}

// The documented ordering guarantee: collect_matches output is sorted
// ascending by (i, j) and byte-identical across thread counts.
TEST(PackedTiledJoin, MatchPairsSortedAndThreadInvariant) {
  const auto dataset = fbf::datagen::build_paired_dataset(
      fbf::datagen::FieldKind::kLastName, 300, 13).value();
  for (const Method method : {Method::kFpdl, Method::kJaro}) {
    JoinConfig config = base_config(method);
    config.collect_matches = true;
    config.threads = 1;
    const auto serial = match_strings(dataset.clean, dataset.error, config);
    EXPECT_TRUE(std::is_sorted(serial.match_pairs.begin(),
                               serial.match_pairs.end()));
    for (const std::size_t threads : {std::size_t{4}, std::size_t{7}}) {
      config.threads = threads;
      const auto parallel =
          match_strings(dataset.clean, dataset.error, config);
      EXPECT_EQ(parallel.match_pairs, serial.match_pairs)
          << fbf::core::method_name(method) << " threads=" << threads;
    }
  }
}

}  // namespace
