// Configuration-sweep tests for the join engine: every knob that must
// not change the match set (signature width) and every knob that must
// (k, method).
#include <gtest/gtest.h>

#include "core/match_join.hpp"
#include "datagen/dataset.hpp"

namespace {

namespace c = fbf::core;
namespace dg = fbf::datagen;

const dg::PairedDataset& ln_dataset() {
  static const dg::PairedDataset dataset =
      dg::build_paired_dataset(dg::FieldKind::kLastName, 250, 2024).value();
  return dataset;
}

c::JoinConfig fpdl_config() {
  c::JoinConfig config;
  config.method = c::Method::kFpdl;
  config.k = 1;
  config.field_class = c::FieldClass::kAlpha;
  return config;
}

TEST(AlphaWordsSweep, MatchSetInvariantFilterSelectivityMonotone) {
  // More signature words = sharper filter (fewer pass) but identical
  // final matches (the verifier fixes any filter looseness).
  std::uint64_t prev_pass = ~0ull;
  std::uint64_t baseline_matches = 0;
  for (const int l : {1, 2, 3, 4}) {
    auto config = fpdl_config();
    config.alpha_words = l;
    const auto stats =
        c::match_strings(ln_dataset().clean, ln_dataset().error, config);
    if (l == 1) {
      baseline_matches = stats.matches;
    } else {
      EXPECT_EQ(stats.matches, baseline_matches) << "l=" << l;
    }
    EXPECT_LE(stats.fbf_pass, prev_pass) << "l=" << l;
    prev_pass = stats.fbf_pass;
  }
}

TEST(ThresholdSweep, MatchesGrowWithK) {
  std::uint64_t prev = 0;
  for (const int k : {0, 1, 2, 3}) {
    auto config = fpdl_config();
    config.k = k;
    const auto stats =
        c::match_strings(ln_dataset().clean, ln_dataset().error, config);
    EXPECT_GE(stats.matches, prev) << "k=" << k;
    prev = stats.matches;
    // Diagonal coverage: at k >= 1 every injected single edit matches.
    if (k >= 1) {
      EXPECT_EQ(stats.diagonal_matches, ln_dataset().size());
    }
  }
}

TEST(ThresholdSweep, KZeroIsExactEquality) {
  auto config = fpdl_config();
  config.k = 0;
  const auto stats =
      c::match_strings(ln_dataset().clean, ln_dataset().clean, config);
  // Self-join at k = 0: the diagonal matches exactly (clean lists have
  // unique entries).
  EXPECT_EQ(stats.diagonal_matches, ln_dataset().size());
  EXPECT_EQ(stats.matches, ln_dataset().size());
}

TEST(GenTiming, SignatureGenerationScalesWithInput) {
  auto config = fpdl_config();
  const auto small = c::match_strings(ln_dataset().clean, ln_dataset().error,
                                      config);
  EXPECT_GT(small.signature_gen_ms, 0.0);
  // Gen time is charged once per join, for both sides.
  EXPECT_LT(small.signature_gen_ms, small.join_ms + 50.0);
}

TEST(MethodSweep, VerifierlessMethodsSkipVerify) {
  for (const auto method :
       {c::Method::kFbfOnly, c::Method::kLengthOnly, c::Method::kLfbfOnly,
        c::Method::kJaro, c::Method::kHamming, c::Method::kSoundex}) {
    auto config = fpdl_config();
    config.method = method;
    const auto stats =
        c::match_strings(ln_dataset().clean, ln_dataset().error, config);
    EXPECT_EQ(stats.verify_calls, 0u) << c::method_name(method);
  }
}

TEST(MethodSweep, MyersAgreesWithLevenshteinSemantics) {
  // Myers verifies plain Levenshtein: transposition pairs need k=2.
  const std::vector<std::string> left = {"SMITH"};
  const std::vector<std::string> right = {"SMIHT"};
  auto config = fpdl_config();
  config.method = c::Method::kMyers;
  config.k = 1;
  EXPECT_EQ(c::match_strings(left, right, config).matches, 0u);
  config.k = 2;
  EXPECT_EQ(c::match_strings(left, right, config).matches, 1u);
}

}  // namespace
