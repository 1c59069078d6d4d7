#include "linkage/blocking.hpp"

#include <gtest/gtest.h>

#include <set>

#include "linkage/record.hpp"

namespace {

namespace lk = fbf::linkage;

std::vector<lk::PersonRecord> people_with_names(
    std::initializer_list<std::pair<const char*, const char*>> names) {
  std::vector<lk::PersonRecord> out;
  std::uint64_t id = 0;
  for (const auto& [first, last] : names) {
    lk::PersonRecord p;
    p.id = id++;
    p.first_name = first;
    p.last_name = last;
    out.push_back(std::move(p));
  }
  return out;
}

TEST(Blocking, ExhaustivePairsCount) {
  const auto pairs = lk::exhaustive_pairs(3, 4);
  EXPECT_EQ(pairs.size(), 12u);
  const std::set<lk::CandidatePair> unique(pairs.begin(), pairs.end());
  EXPECT_EQ(unique.size(), 12u);
}

TEST(Blocking, StandardBlockingGroupsByKey) {
  const auto left = people_with_names(
      {{"MARY", "SMITH"}, {"JOHN", "JONES"}, {"ANNA", "SMYTH"}});
  const auto right = people_with_names(
      {{"MARY", "SMITH"}, {"JO", "JONES"}, {"BOB", "BROWN"}});
  const auto pairs = lk::standard_block_pairs(
      left, right,
      [](const lk::PersonRecord& r) { return r.last_name.substr(0, 1); });
  // S-block: left {SMITH, SMYTH} x right {SMITH} = 2; J-block: 1x1 = 1;
  // B-block: no left record.
  EXPECT_EQ(pairs.size(), 3u);
}

TEST(Blocking, EmptyKeyRecordsExcluded) {
  auto left = people_with_names({{"MARY", "SMITH"}, {"JOHN", ""}});
  auto right = people_with_names({{"MARY", "SMITH"}, {"JO", ""}});
  const auto pairs = lk::standard_block_pairs(
      left, right,
      [](const lk::PersonRecord& r) { return r.last_name; });
  // Only the SMITH pair; the empty-keyed records generate no candidates —
  // the recall failure mode the paper's intro describes.
  EXPECT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0], lk::CandidatePair(0, 0));
}

TEST(Blocking, SoundexKeyBlocksVariantSpellings) {
  const auto left = people_with_names({{"M", "SMITH"}});
  const auto right = people_with_names({{"M", "SMYTH"}});
  const auto pairs =
      lk::standard_block_pairs(left, right, lk::block_key_soundex_lastname);
  EXPECT_EQ(pairs.size(), 1u);
}

TEST(Blocking, BlockingKeyErrorLosesTruePair) {
  // A single leading-letter typo moves the record to another block: the
  // true pair is silently lost (FBF, by contrast, would keep it).
  const auto left = people_with_names({{"M", "SMITH"}});
  const auto right = people_with_names({{"M", "XMITH"}});
  const auto pairs = lk::standard_block_pairs(
      left, right,
      [](const lk::PersonRecord& r) { return r.last_name.substr(0, 1); });
  EXPECT_TRUE(pairs.empty());
}

}  // namespace
