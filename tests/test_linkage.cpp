#include <gtest/gtest.h>

#include "linkage/comparator.hpp"
#include "linkage/engine.hpp"
#include "linkage/incremental.hpp"
#include "linkage/person_gen.hpp"
#include "linkage/record.hpp"
#include "util/rng.hpp"

namespace {

namespace lk = fbf::linkage;
using fbf::util::Rng;

lk::PersonRecord sample_person() {
  lk::PersonRecord p;
  p.id = 1;
  p.first_name = "MARY";
  p.last_name = "JOHNSON";
  p.address = "1801 N BROAD ST";
  p.phone = "2155551234";
  p.gender.assign(1, 'F');
  p.ssn = "123121234";
  p.birth_date = "02251980";
  return p;
}

TEST(Record, FieldAccessorRoundTrip) {
  lk::PersonRecord p = sample_person();
  for (const lk::RecordField f : lk::all_record_fields()) {
    p.field(f).assign(1, 'X');
    EXPECT_EQ(p.field(f), "X") << lk::record_field_name(f);
  }
}

TEST(Record, AllFieldsEnumerated) {
  EXPECT_EQ(lk::all_record_fields().size(), lk::kRecordFieldCount);
}

TEST(PersonGen, GeneratesCompleteRecords) {
  Rng rng(1);
  const auto people = lk::generate_people(200, rng);
  ASSERT_EQ(people.size(), 200u);
  for (std::size_t i = 0; i < people.size(); ++i) {
    EXPECT_EQ(people[i].id, i);
    for (const lk::RecordField f : lk::all_record_fields()) {
      EXPECT_FALSE(people[i].field(f).empty())
          << lk::record_field_name(f);
    }
  }
}

TEST(PersonGen, ErrorCopyPreservesIds) {
  Rng rng(2);
  const auto clean = lk::generate_people(150, rng);
  const auto error = lk::make_error_records(clean, {}, rng);
  ASSERT_EQ(error.size(), clean.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ(error[i].id, clean[i].id);
  }
}

TEST(PersonGen, SsnMissingRateApproximatelyModel) {
  Rng rng(3);
  const auto clean = lk::generate_people(2000, rng);
  lk::RecordErrorModel model;
  model.ssn_missing_rate = 0.4;  // paper: >40% missing
  const auto error = lk::make_error_records(clean, model, rng);
  int missing = 0;
  for (const auto& r : error) {
    if (r.ssn.empty()) {
      ++missing;
    }
  }
  EXPECT_NEAR(static_cast<double>(missing) / 2000.0, 0.4, 0.05);
}

TEST(PersonGen, EveryErrorRecordDiffersFromClean) {
  Rng rng(4);
  const auto clean = lk::generate_people(300, rng);
  lk::RecordErrorModel model;
  model.min_typo_fields = 1;
  const auto error = lk::make_error_records(clean, model, rng);
  for (std::size_t i = 0; i < clean.size(); ++i) {
    bool differs = false;
    for (const lk::RecordField f : lk::all_record_fields()) {
      if (clean[i].field(f) != error[i].field(f)) {
        differs = true;
      }
    }
    EXPECT_TRUE(differs) << "record " << i;
  }
}

TEST(Comparator, DefaultConfigShape) {
  const auto config =
      lk::make_point_threshold_config(lk::FieldStrategy::kFpdl);
  EXPECT_EQ(config.rules.size(), lk::kRecordFieldCount);
  double total = 0.0;
  for (const auto& rule : config.rules) {
    total += rule.weight;
    if (rule.field == lk::RecordField::kGender) {
      EXPECT_EQ(rule.strategy, lk::FieldStrategy::kExact);
    } else {
      EXPECT_EQ(rule.strategy, lk::FieldStrategy::kFpdl);
    }
  }
  EXPECT_DOUBLE_EQ(total, 9.0);
  EXPECT_TRUE(lk::config_uses_fbf(config));
  EXPECT_FALSE(lk::config_uses_fbf(
      lk::make_point_threshold_config(lk::FieldStrategy::kDl)));
}

TEST(Comparator, IdenticalRecordsScoreFullPoints) {
  const auto config = lk::make_point_threshold_config(lk::FieldStrategy::kDl);
  const lk::PersonRecord p = sample_person();
  lk::CompareCounters counters;
  EXPECT_DOUBLE_EQ(lk::score_pair(p, p, nullptr, nullptr, config, counters),
                   9.0);
  EXPECT_EQ(counters.field_comparisons, 7u);
}

TEST(Comparator, MissingFieldsScoreZeroPoints) {
  const auto config = lk::make_point_threshold_config(lk::FieldStrategy::kDl);
  lk::PersonRecord a = sample_person();
  lk::PersonRecord b = sample_person();
  b.ssn.clear();
  lk::CompareCounters counters;
  EXPECT_DOUBLE_EQ(lk::score_pair(a, b, nullptr, nullptr, config, counters),
                   9.0 - 2.5);
}

TEST(Comparator, SingleTypoStillMatchesViaDl) {
  const auto config = lk::make_point_threshold_config(lk::FieldStrategy::kDl);
  lk::PersonRecord a = sample_person();
  lk::PersonRecord b = sample_person();
  b.last_name = "JOHNSTON";  // one insertion
  lk::CompareCounters counters;
  EXPECT_DOUBLE_EQ(lk::score_pair(a, b, nullptr, nullptr, config, counters),
                   9.0);
}

TEST(Comparator, FbfStrategiesMatchDlDecisions) {
  Rng rng(5);
  const auto clean = lk::generate_people(80, rng);
  const auto error = lk::make_error_records(clean, {}, rng);
  const auto dl_cfg = lk::make_point_threshold_config(lk::FieldStrategy::kDl);
  const auto fdl_cfg =
      lk::make_point_threshold_config(lk::FieldStrategy::kFdl);
  const auto fpdl_cfg =
      lk::make_point_threshold_config(lk::FieldStrategy::kFpdl);
  for (std::size_t i = 0; i < clean.size(); ++i) {
    const auto sa = lk::build_record_signatures(clean[i]);
    for (std::size_t j = 0; j < error.size(); ++j) {
      const auto sb = lk::build_record_signatures(error[j]);
      lk::CompareCounters c1, c2, c3;
      const double dl_score =
          lk::score_pair(clean[i], error[j], nullptr, nullptr, dl_cfg, c1);
      EXPECT_DOUBLE_EQ(
          lk::score_pair(clean[i], error[j], &sa, &sb, fdl_cfg, c2), dl_score);
      EXPECT_DOUBLE_EQ(
          lk::score_pair(clean[i], error[j], &sa, &sb, fpdl_cfg, c3),
          dl_score);
    }
  }
}

TEST(Engine, ExhaustiveLinkFindsTruePairs) {
  Rng rng(6);
  const auto clean = lk::generate_people(120, rng);
  lk::RecordErrorModel model;
  model.field_typo_rate = 0.2;
  const auto error = lk::make_error_records(clean, model, rng);
  lk::LinkConfig config;
  config.comparator = lk::make_point_threshold_config(lk::FieldStrategy::kDl);
  const auto stats = lk::link_exhaustive(clean, error, config);
  EXPECT_EQ(stats.candidate_pairs, 120u * 120u);
  // The threshold tolerates the error model: expect high recall.
  EXPECT_GE(stats.true_positives, 110u);
  EXPECT_EQ(stats.matches, stats.true_positives + stats.false_positives);
}

TEST(Engine, FbfStrategiesReproduceDlResults) {
  Rng rng(7);
  const auto clean = lk::generate_people(100, rng);
  const auto error = lk::make_error_records(clean, {}, rng);
  lk::LinkConfig dl_config;
  dl_config.comparator =
      lk::make_point_threshold_config(lk::FieldStrategy::kDl);
  const auto baseline = lk::link_exhaustive(clean, error, dl_config);
  for (const auto strategy :
       {lk::FieldStrategy::kPdl, lk::FieldStrategy::kFdl,
        lk::FieldStrategy::kFpdl}) {
    lk::LinkConfig config;
    config.comparator = lk::make_point_threshold_config(strategy);
    const auto stats = lk::link_exhaustive(clean, error, config);
    EXPECT_EQ(stats.matches, baseline.matches)
        << lk::field_strategy_name(strategy);
    EXPECT_EQ(stats.true_positives, baseline.true_positives);
    EXPECT_EQ(stats.false_positives, baseline.false_positives);
  }
}

TEST(Engine, FbfReducesVerifyCalls) {
  Rng rng(8);
  const auto clean = lk::generate_people(100, rng);
  const auto error = lk::make_error_records(clean, {}, rng);
  lk::LinkConfig dl_config;
  dl_config.comparator =
      lk::make_point_threshold_config(lk::FieldStrategy::kDl);
  lk::LinkConfig fpdl_config;
  fpdl_config.comparator =
      lk::make_point_threshold_config(lk::FieldStrategy::kFpdl);
  const auto dl_stats = lk::link_exhaustive(clean, error, dl_config);
  const auto fpdl_stats = lk::link_exhaustive(clean, error, fpdl_config);
  EXPECT_LT(fpdl_stats.counters.verify_calls,
            dl_stats.counters.verify_calls / 5)
      << "FBF should prune the vast majority of edit-distance calls";
  EXPECT_GT(fpdl_stats.signature_gen_ms, 0.0);
}

TEST(Engine, ThreadsDoNotChangeResults) {
  Rng rng(9);
  const auto clean = lk::generate_people(80, rng);
  const auto error = lk::make_error_records(clean, {}, rng);
  lk::LinkConfig config;
  config.comparator =
      lk::make_point_threshold_config(lk::FieldStrategy::kFpdl);
  config.exec.threads = 1;
  const auto serial = lk::link_exhaustive(clean, error, config);
  config.exec.threads = 4;
  const auto parallel = lk::link_exhaustive(clean, error, config);
  EXPECT_EQ(parallel.matches, serial.matches);
  EXPECT_EQ(parallel.true_positives, serial.true_positives);
  EXPECT_EQ(parallel.counters.verify_calls, serial.counters.verify_calls);
}

TEST(Engine, CollectMatchesReturnsPairs) {
  Rng rng(10);
  const auto clean = lk::generate_people(50, rng);
  const auto error = lk::make_error_records(clean, {}, rng);
  lk::LinkConfig config;
  config.comparator = lk::make_point_threshold_config(lk::FieldStrategy::kDl);
  config.collect_matches = true;
  const auto stats = lk::link_exhaustive(clean, error, config);
  EXPECT_EQ(stats.match_pairs.size(), stats.matches);
}

TEST(Engine, FalseNegativesAccounting) {
  Rng rng(11);
  const auto clean = lk::generate_people(60, rng);
  const auto error = lk::make_error_records(clean, {}, rng);
  lk::LinkConfig config;
  config.comparator = lk::make_point_threshold_config(lk::FieldStrategy::kDl);
  const auto stats = lk::link_exhaustive(clean, error, config);
  EXPECT_EQ(stats.false_negatives(60), 60 - stats.true_positives);
}

}  // namespace
