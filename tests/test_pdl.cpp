#include "metrics/pdl.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>

#include "metrics/damerau.hpp"
#include "util/rng.hpp"

namespace {

using fbf::metrics::bounded_dl_distance;
using fbf::metrics::dl_distance;
using fbf::metrics::pdl_within;
using fbf::metrics::within_edits;

TEST(Pdl, PaperExamples) {
  // Fig. 2: PDL("SUNDAY", "SATURDAY", 2) — distance 3, so FALSE.
  EXPECT_FALSE(pdl_within("SUNDAY", "SATURDAY", 2));
  EXPECT_TRUE(pdl_within("SUNDAY", "SATURDAY", 3));
  // k=1 terminates immediately: abs(6-8) = 2 > 1.
  EXPECT_FALSE(pdl_within("SUNDAY", "SATURDAY", 1));
}

TEST(Pdl, LengthPrefilter) {
  EXPECT_FALSE(pdl_within("JOE", "JOSEF", 1));  // §2.5 example: lengths 3 vs 5
  EXPECT_TRUE(pdl_within("JOE", "JOSE", 1));
  EXPECT_TRUE(pdl_within("JOSE", "JOSEF", 1));
}

TEST(Pdl, EmptyStringQuirkFaithfulToAlgorithm2) {
  // Algorithm 2 Step 1 returns FALSE for any empty operand, even though
  // DL("", "A") = 1 <= 1.  pdl_within reproduces the paper exactly...
  EXPECT_FALSE(pdl_within("", "A", 1));
  EXPECT_FALSE(pdl_within("A", "", 1));
  EXPECT_FALSE(pdl_within("", "", 1));
  // ...while within_edits regularizes the boundary for library use.
  EXPECT_TRUE(within_edits("", "A", 1));
  EXPECT_TRUE(within_edits("", "", 0));
  EXPECT_FALSE(within_edits("", "AB", 1));
}

TEST(Pdl, NegativeThresholdAlwaysFalse) {
  EXPECT_FALSE(pdl_within("A", "A", -1));
  EXPECT_FALSE(within_edits("A", "A", -1));
  EXPECT_FALSE(bounded_dl_distance("A", "A", -1).has_value());
}

TEST(Pdl, TranspositionWithinBand) {
  EXPECT_TRUE(pdl_within("SMITH", "SMIHT", 1));
  EXPECT_TRUE(pdl_within("8005551212", "8005551221", 1));
}

TEST(Pdl, ZeroThresholdMeansEquality) {
  EXPECT_TRUE(pdl_within("SMITH", "SMITH", 0));
  EXPECT_FALSE(pdl_within("SMITH", "SMYTH", 0));
}

TEST(BoundedDl, ReturnsExactDistanceWithinThreshold) {
  EXPECT_EQ(bounded_dl_distance("SATURDAY", "SUNDAY", 3), 3);
  EXPECT_EQ(bounded_dl_distance("SMITH", "SMITH", 2), 0);
  EXPECT_EQ(bounded_dl_distance("SMITH", "SMYTH", 2), 1);
  EXPECT_FALSE(bounded_dl_distance("SATURDAY", "SUNDAY", 2).has_value());
  EXPECT_EQ(bounded_dl_distance("", "AB", 3), 2);
}

// The load-bearing property: for non-empty strings PDL(s,t,k) is exactly
// DL(s,t) <= k — over random pairs, near pairs, and a sweep of k.
class PdlEquivalence
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {
 protected:
  static std::string random_string(fbf::util::Rng& rng, std::size_t min_len,
                                   std::size_t max_len, int alphabet) {
    const auto len =
        min_len + static_cast<std::size_t>(rng.below(max_len - min_len + 1));
    std::string s(len, '\0');
    for (auto& ch : s) {
      ch = static_cast<char>(
          'A' + rng.below(static_cast<std::uint64_t>(alphabet)));
    }
    return s;
  }
};

TEST_P(PdlEquivalence, MatchesFullDlOnRandomPairs) {
  const auto [seed, k] = GetParam();
  fbf::util::Rng rng(seed);
  for (int i = 0; i < 1500; ++i) {
    const std::string s = random_string(rng, 1, 12, 5);
    const std::string t = random_string(rng, 1, 12, 5);
    const bool expected = dl_distance(s, t) <= k;
    EXPECT_EQ(pdl_within(s, t, k), expected)
        << "s=" << s << " t=" << t << " k=" << k
        << " dl=" << dl_distance(s, t);
    EXPECT_EQ(within_edits(s, t, k), expected);
  }
}

TEST_P(PdlEquivalence, MatchesFullDlOnNearPairs) {
  // Pairs constructed by mutating a base string: mostly distances 0..3,
  // exercising the band boundary and the early exit.
  const auto [seed, k] = GetParam();
  fbf::util::Rng rng(seed + 500);
  for (int i = 0; i < 1500; ++i) {
    const std::string s = random_string(rng, 2, 12, 8);
    std::string t = s;
    const int edits = static_cast<int>(rng.below(4));
    for (int e = 0; e < edits && !t.empty(); ++e) {
      const auto pos = static_cast<std::size_t>(rng.below(t.size()));
      switch (rng.below(3)) {
        case 0:
          t[pos] = static_cast<char>('A' + rng.below(8));
          break;
        case 1:
          t.insert(t.begin() + static_cast<std::ptrdiff_t>(pos),
                   static_cast<char>('A' + rng.below(8)));
          break;
        default:
          t.erase(t.begin() + static_cast<std::ptrdiff_t>(pos));
          break;
      }
    }
    if (t.empty()) {
      continue;  // pdl_within's empty-string quirk is tested separately
    }
    EXPECT_EQ(pdl_within(s, t, k), dl_distance(s, t) <= k)
        << "s=" << s << " t=" << t << " k=" << k;
  }
}

TEST_P(PdlEquivalence, BandKernelMatchesFullDlOnLongPairs) {
  // Lengths 0..130 with k from 0 up to and past both lengths (the larger
  // k run the band on a heap buffer instead of the stack rows).  Half the pairs are near
  // copies (a few edits), so the distances sit around the band edges.
  const auto [seed, k_param] = GetParam();
  fbf::util::Rng rng(seed + 1300);
  for (int i = 0; i < 60; ++i) {
    const std::string s = random_string(rng, 0, 130, 6);
    std::string t = random_string(rng, 0, 130, 6);
    if (i % 2 == 0) {
      t = s;
      for (int e = static_cast<int>(rng.below(6)); e > 0 && !t.empty(); --e) {
        const auto pos = static_cast<std::size_t>(rng.below(t.size()));
        if (rng.below(2) == 0) {
          t[pos] = static_cast<char>('A' + rng.below(6));
        } else {
          t.erase(t.begin() + static_cast<std::ptrdiff_t>(pos));
        }
      }
    }
    const int full = dl_distance(s, t);
    const int longest = static_cast<int>(std::max(s.size(), t.size()));
    for (const int k : {k_param, k_param + 7, longest, longest + 1,
                        longest + 140}) {
      // Algorithm 2's quirks: an empty operand or a length gap past k is
      // FALSE up front (DL alone would accept "" vs "A" at k = 1).
      const bool alg2 = !s.empty() && !t.empty() && full <= k;
      EXPECT_EQ(pdl_within(s, t, k), alg2)
          << "|s|=" << s.size() << " |t|=" << t.size() << " k=" << k
          << " dl=" << full;
      EXPECT_EQ(within_edits(s, t, k), full <= k);
      const auto bounded = bounded_dl_distance(s, t, k);
      if (full <= k) {
        EXPECT_EQ(bounded, full) << "s=" << s << " t=" << t << " k=" << k;
      } else {
        EXPECT_FALSE(bounded.has_value()) << "s=" << s << " t=" << t;
      }
    }
  }
}

TEST_P(PdlEquivalence, BoundedDistanceAgreesWithFullDl) {
  const auto [seed, k] = GetParam();
  fbf::util::Rng rng(seed + 900);
  for (int i = 0; i < 800; ++i) {
    const std::string s = random_string(rng, 1, 10, 4);
    const std::string t = random_string(rng, 1, 10, 4);
    const int full = dl_distance(s, t);
    const auto bounded = bounded_dl_distance(s, t, k);
    if (full <= k) {
      ASSERT_TRUE(bounded.has_value()) << "s=" << s << " t=" << t;
      EXPECT_EQ(*bounded, full) << "s=" << s << " t=" << t;
    } else {
      EXPECT_FALSE(bounded.has_value()) << "s=" << s << " t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndThresholds, PdlEquivalence,
    ::testing::Combine(::testing::Values<std::uint64_t>(101, 202, 303),
                       ::testing::Values(0, 1, 2, 3, 5)));

}  // namespace

namespace long_strings {

using fbf::metrics::dl_distance;
using fbf::metrics::pdl_within;

TEST(PdlLongStrings, BandCorrectOnLongInputs) {
  // Strings beyond demographic length (up to 48 chars) with larger k:
  // stresses the band clearing and the rolling-row reuse.
  fbf::util::Rng rng(909);
  for (int iter = 0; iter < 400; ++iter) {
    std::string s(8 + rng.below(41), '\0');
    std::string t(8 + rng.below(41), '\0');
    for (auto& ch : s) ch = static_cast<char>('A' + rng.below(4));
    for (auto& ch : t) ch = static_cast<char>('A' + rng.below(4));
    for (const int k : {1, 4, 8}) {
      EXPECT_EQ(pdl_within(s, t, k), dl_distance(s, t) <= k)
          << "s=" << s << " t=" << t << " k=" << k;
    }
  }
}

TEST(PdlLongStrings, RepeatedCharacterBlocks) {
  // Adversarial: long runs of one character interleaved with noise make
  // many diagonal ties — a classic source of off-by-one band bugs.
  EXPECT_TRUE(pdl_within("AAAAAAAAAABAAAAAAAAAA", "AAAAAAAAAACAAAAAAAAAA", 1));
  EXPECT_FALSE(pdl_within("AAAAAAAAAABBBAAAAAAAAAA",
                          "AAAAAAAAAACCCAAAAAAAAAA", 2));
  EXPECT_TRUE(pdl_within("AAAAAAAAAABBBAAAAAAAAAA",
                         "AAAAAAAAAACCCAAAAAAAAAA", 3));
  EXPECT_TRUE(pdl_within(std::string(40, 'A'), std::string(41, 'A'), 1));
  EXPECT_FALSE(pdl_within(std::string(40, 'A'), std::string(44, 'A'), 3));
}

TEST(PdlLongStrings, TranspositionsAtBothBandEdgesForKTwo) {
  // One or two indels shift the alignment to diagonal +-1 or +-2 (the
  // band's edges at k = 2) before or after an adjacent transposition, on
  // either side; every placement must agree with the full DP.
  const std::string base = "ABCDEFGHIJKL";
  const auto shifted = [&](std::string t, std::size_t p, std::size_t q,
                           int indels, bool insert) {
    std::swap(t[p], t[p + 1]);
    for (int e = 0; e < indels; ++e) {
      if (insert) {
        t.insert(t.begin() + static_cast<std::ptrdiff_t>(q), 'Z');
      } else if (q < t.size()) {
        t.erase(t.begin() + static_cast<std::ptrdiff_t>(q));
      }
    }
    return t;
  };
  int accepted = 0;
  int rejected = 0;
  for (std::size_t p = 0; p + 1 < base.size(); ++p) {
    for (std::size_t q = 0; q <= base.size(); ++q) {
      for (const int indels : {1, 2}) {
        for (const bool insert : {true, false}) {
          const std::string t = shifted(base, p, q, indels, insert);
          for (const auto& [a, b] : {std::pair{base, t}, std::pair{t, base}}) {
            const bool expected = dl_distance(a, b) <= 2;
            (expected ? accepted : rejected) += 1;
            EXPECT_EQ(pdl_within(a, b, 2), expected)
                << "a=" << a << " b=" << b;
            EXPECT_EQ(fbf::metrics::within_edits(a, b, 2), expected);
          }
        }
      }
    }
  }
  EXPECT_GT(accepted, 0);  // the sweep reaches both verdicts
  EXPECT_GT(rejected, 0);
}

TEST(PdlLongStrings, TranspositionAtBandEdge) {
  // A transposition exactly at the band boundary must still be seen.
  std::string s = "ABCDEFGHIJKLMNOP";
  std::string t = s;
  std::swap(t[14], t[15]);  // tail transposition
  EXPECT_TRUE(pdl_within(s, t, 1));
  std::swap(t[0], t[1]);  // plus a head transposition: distance 2
  EXPECT_FALSE(pdl_within(s, t, 1));
  EXPECT_TRUE(pdl_within(s, t, 2));
}

}  // namespace long_strings
