#include "metrics/soundex.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

namespace {

using fbf::metrics::soundex;
using fbf::metrics::soundex_match;

// std::string, not const char*: gtest prints a char pointer with its address,
// which would make the generated test names differ from build to build.
class SoundexKnownCodes
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(SoundexKnownCodes, EncodesToReferenceCode) {
  const auto [name, code] = GetParam();
  EXPECT_EQ(soundex(name), code) << name;
}

INSTANTIATE_TEST_SUITE_P(
    CensusReference, SoundexKnownCodes,
    ::testing::Values(
        // Classic Knuth / Census reference vectors.
        std::make_tuple("ROBERT", "R163"), std::make_tuple("RUPERT", "R163"),
        std::make_tuple("RUBIN", "R150"), std::make_tuple("ASHCRAFT", "A261"),
        std::make_tuple("ASHCROFT", "A261"),  // H/W transparency rule
        std::make_tuple("TYMCZAK", "T522"), std::make_tuple("PFISTER", "P236"),
        std::make_tuple("HONEYMAN", "H555"), std::make_tuple("SMITH", "S530"),
        std::make_tuple("SMYTH", "S530"), std::make_tuple("JACKSON", "J250"),
        std::make_tuple("WASHINGTON", "W252"), std::make_tuple("LEE", "L000"),
        std::make_tuple("GUTIERREZ", "G362"),
        std::make_tuple("JOHNSON", "J525"), std::make_tuple("WILLIAMS", "W452"),
        std::make_tuple("EULER", "E460"), std::make_tuple("GAUSS", "G200"),
        std::make_tuple("HILBERT", "H416"), std::make_tuple("KNUTH", "K530"),
        std::make_tuple("LLOYD", "L300"), std::make_tuple("LUKASIEWICZ", "L222")));

TEST(Soundex, CaseInsensitive) {
  EXPECT_EQ(soundex("smith"), soundex("SMITH"));
  EXPECT_EQ(soundex("McDonald"), soundex("MCDONALD"));
}

TEST(Soundex, IgnoresNonLetters) {
  EXPECT_EQ(soundex("O'BRIEN"), soundex("OBRIEN"));
  EXPECT_EQ(soundex("SMITH-JONES"), soundex("SMITHJONES"));
}

TEST(Soundex, EmptyAndSymbolOnlyInputs) {
  EXPECT_EQ(soundex(""), "");
  EXPECT_EQ(soundex("123"), "");
  EXPECT_EQ(soundex("-'-"), "");
}

TEST(Soundex, PadsToFourCharacters) {
  EXPECT_EQ(soundex("A").size(), 4u);
  EXPECT_EQ(soundex("A"), "A000");
  EXPECT_EQ(soundex("AB"), "A100");
}

TEST(Soundex, TruncatesToFourCharacters) {
  EXPECT_EQ(soundex("SCHWARZENEGGER").size(), 4u);
}

TEST(Soundex, VowelSeparatorAllowsRepeatCode) {
  // T-Y-M-C-Z-A-K: the vowel resets the duplicate window.
  EXPECT_EQ(soundex("TYMCZAK"), "T522");
}

TEST(SoundexMatch, MatchesVariantSpellings) {
  // The legacy behaviour the paper criticizes: aggressive matching...
  EXPECT_TRUE(soundex_match("SMITH", "SMYTH"));
  EXPECT_TRUE(soundex_match("ROBERT", "RUPERT"));
  // One class holds C/G/K/S/Z, so G and K spellings collide.
  EXPECT_EQ(soundex("ROGERS"), soundex("ROKERS"));
  // ...but it misses single-edit typos that shift the code (paper: the
  // Soundex found less than half the true positive matches).
  EXPECT_FALSE(soundex_match("SMITH", "MITH"));   // leading-char deletion
  EXPECT_FALSE(soundex_match("SMITH", "SMITB"));  // trailing substitution
  // The code keeps the first letter verbatim, so a leading-consonant typo
  // always misses — the weakness Tables 7-8 measure.
  EXPECT_FALSE(soundex_match("SMITH", "XMITH"));
}

TEST(SoundexMatch, EmptyNeverMatches) {
  EXPECT_FALSE(soundex_match("", ""));
  EXPECT_FALSE(soundex_match("", "SMITH"));
}

}  // namespace
