#include "util/bitops.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <vector>

#include "util/rng.hpp"

namespace {

using fbf::util::PopcountKind;
using fbf::util::popcount;
using fbf::util::popcount_hw;
using fbf::util::popcount_lut;
using fbf::util::popcount_wegner;
using fbf::util::xor_diff_bits;

TEST(Bitops, WegnerKnownValues) {
  EXPECT_EQ(popcount_wegner(0u), 0);
  EXPECT_EQ(popcount_wegner(1u), 1);
  EXPECT_EQ(popcount_wegner(0b1011u), 3);
  EXPECT_EQ(popcount_wegner(0x80000000u), 1);
  EXPECT_EQ(popcount_wegner(0xFFFFFFFFu), 32);
  EXPECT_EQ(popcount_wegner(0xAAAAAAAAu), 16);
}

TEST(Bitops, ConstexprUsable) {
  static_assert(popcount_wegner(0xF0F0F0F0u) == 16);
  static_assert(popcount_lut(0xF0F0F0F0u) == 16);
  static_assert(popcount_hw(0xF0F0F0F0u) == 16);
}

class PopcountAgreement : public ::testing::TestWithParam<PopcountKind> {};

TEST_P(PopcountAgreement, MatchesHardwareOnRandomWords) {
  const PopcountKind kind = GetParam();
  fbf::util::Rng rng(123);
  for (int i = 0; i < 20000; ++i) {
    const auto word = static_cast<std::uint32_t>(rng.next());
    EXPECT_EQ(popcount(word, kind), popcount_hw(word)) << "word=" << word;
  }
}

TEST_P(PopcountAgreement, MatchesOnBoundaryWords) {
  const PopcountKind kind = GetParam();
  const std::uint32_t cases[] = {0u,
                                 1u,
                                 2u,
                                 3u,
                                 0x7FFFFFFFu,
                                 0x80000000u,
                                 0x80000001u,
                                 0xFFFFFFFEu,
                                 0xFFFFFFFFu,
                                 0x55555555u,
                                 0xAAAAAAAAu};
  for (const std::uint32_t word : cases) {
    EXPECT_EQ(popcount(word, kind), popcount_hw(word)) << "word=" << word;
  }
}

TEST_P(PopcountAgreement, SingleBitWords) {
  const PopcountKind kind = GetParam();
  for (int bit = 0; bit < 32; ++bit) {
    EXPECT_EQ(popcount(1u << bit, kind), 1);
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, PopcountAgreement,
                         ::testing::Values(PopcountKind::kWegner,
                                           PopcountKind::kHardware,
                                           PopcountKind::kLut),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case PopcountKind::kWegner: return "Wegner";
                             case PopcountKind::kHardware: return "Hardware";
                             case PopcountKind::kLut: return "Lut";
                           }
                           return "Unknown";
                         });

TEST(Bitops, PopcountKindNames) {
  EXPECT_STREQ(fbf::util::popcount_kind_name(PopcountKind::kWegner), "wegner");
  EXPECT_STREQ(fbf::util::popcount_kind_name(PopcountKind::kHardware),
               "hardware");
  EXPECT_STREQ(fbf::util::popcount_kind_name(PopcountKind::kLut), "lut");
}

TEST(Bitops, Popcount64Variants) {
  fbf::util::Rng rng(2024);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t word = rng.next();
    const int expected = std::popcount(word);
    EXPECT_EQ(fbf::util::popcount_hw64(word), expected);
    EXPECT_EQ(fbf::util::popcount_wegner64(word), expected);
    EXPECT_EQ(fbf::util::popcount_lut64(word), expected);
  }
  static_assert(fbf::util::popcount_wegner64(0xFFFFFFFFFFFFFFFFull) == 64);
  static_assert(fbf::util::popcount_lut64(0x8000000000000001ull) == 2);
}

TEST(XorDiffBits, EmptySpansAreZero) {
  EXPECT_EQ(xor_diff_bits({}, {}), 0);
}

TEST(XorDiffBits, SingleWord) {
  const std::uint32_t m[] = {0b1100};
  const std::uint32_t n[] = {0b1010};
  EXPECT_EQ(xor_diff_bits(m, n), 2);
}

TEST(XorDiffBits, IdenticalVectorsAreZero) {
  const std::uint32_t m[] = {0xDEADBEEF, 0x12345678, 0};
  EXPECT_EQ(xor_diff_bits(m, m), 0);
}

TEST(XorDiffBits, SumsAcrossWords) {
  const std::uint32_t m[] = {0b1, 0b11, 0b111};
  const std::uint32_t n[] = {0b0, 0b00, 0b000};
  EXPECT_EQ(xor_diff_bits(m, n), 6);
}

TEST(XorDiffBits, SymmetricInArguments) {
  fbf::util::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const std::uint32_t m[] = {static_cast<std::uint32_t>(rng.next()),
                               static_cast<std::uint32_t>(rng.next())};
    const std::uint32_t n[] = {static_cast<std::uint32_t>(rng.next()),
                               static_cast<std::uint32_t>(rng.next())};
    EXPECT_EQ(xor_diff_bits(m, n), xor_diff_bits(n, m));
  }
}

TEST(XorDiffBits, AllStrategiesAgreeOnVectors) {
  fbf::util::Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    std::vector<std::uint32_t> m(3);
    std::vector<std::uint32_t> n(3);
    for (auto& w : m) w = static_cast<std::uint32_t>(rng.next());
    for (auto& w : n) w = static_cast<std::uint32_t>(rng.next());
    const int hw = xor_diff_bits(m, n, PopcountKind::kHardware);
    EXPECT_EQ(xor_diff_bits(m, n, PopcountKind::kWegner), hw);
    EXPECT_EQ(xor_diff_bits(m, n, PopcountKind::kLut), hw);
  }
}

}  // namespace
