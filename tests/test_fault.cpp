#include "util/fault.hpp"

#include <gtest/gtest.h>

#include <string>

namespace {

using fbf::util::FaultConfig;
using fbf::util::FaultInjector;

TEST(FaultInjector, DefaultConfigInjectsNothing) {
  FaultInjector injector;
  std::string bytes(64, 'x');
  for (std::size_t shard = 0; shard < 16; ++shard) {
    for (int attempt = 1; attempt <= 8; ++attempt) {
      EXPECT_FALSE(injector.shard_attempt_fails(shard, attempt));
    }
  }
  EXPECT_FALSE(injector.corrupt_bytes(bytes, "snap", 0).has_value());
  EXPECT_EQ(injector.truncated_size(100, "journal", 0), 100u);
  EXPECT_EQ(injector.counters().shard_failures, 0u);
  EXPECT_EQ(injector.counters().bytes_corrupted, 0u);
}

TEST(FaultInjector, DecisionsAreDeterministicAcrossInstances) {
  FaultConfig config;
  config.seed = 99;
  config.shard_fail_rate = 0.5;
  FaultInjector a(config);
  FaultInjector b(config);
  for (std::size_t shard = 0; shard < 32; ++shard) {
    for (int attempt = 1; attempt <= 4; ++attempt) {
      EXPECT_EQ(a.shard_attempt_fails(shard, attempt),
                b.shard_attempt_fails(shard, attempt));
    }
  }
}

TEST(FaultInjector, DecisionsAreOrderIndependent) {
  // The verdict for (shard, attempt) is a pure function of the key, not
  // of how many draws happened before it.
  FaultConfig config;
  config.seed = 7;
  config.shard_fail_rate = 0.5;
  FaultInjector fresh(config);
  const bool expected = fresh.shard_attempt_fails(5, 2);
  FaultInjector busy(config);
  for (std::size_t shard = 0; shard < 20; ++shard) {
    (void)busy.shard_attempt_fails(shard, 1);
  }
  EXPECT_EQ(busy.shard_attempt_fails(5, 2), expected);
}

TEST(FaultInjector, WriteFaultsAreKeyedBySequenceNotHistory) {
  // corrupt_bytes/truncated_size decisions for a given sequence must not
  // depend on how many earlier faults fired.
  FaultConfig config;
  config.seed = 31;
  config.snapshot_corrupt_rate = 0.5;
  config.journal_truncate_rate = 0.5;
  const std::string original(128, 'y');
  FaultInjector fresh(config);
  std::string fresh_bytes = original;
  const auto expected_offset = fresh.corrupt_bytes(fresh_bytes, "snap", 9);
  const std::size_t expected_size = fresh.truncated_size(777, "journal", 9);
  FaultInjector busy(config);
  for (std::uint64_t seq = 0; seq < 9; ++seq) {
    std::string scratch = original;
    (void)busy.corrupt_bytes(scratch, "snap", seq);
    (void)busy.truncated_size(777, "journal", seq);
  }
  std::string busy_bytes = original;
  EXPECT_EQ(busy.corrupt_bytes(busy_bytes, "snap", 9), expected_offset);
  EXPECT_EQ(busy_bytes, fresh_bytes);
  EXPECT_EQ(busy.truncated_size(777, "journal", 9), expected_size);
}

TEST(FaultInjector, NetFaultKindIsDeterministicAndCoversAllKinds) {
  FaultConfig config;
  config.seed = 321;
  config.shard_fail_rate = 1.0;
  const FaultInjector a(config);
  const FaultInjector b(config);
  bool seen[fbf::util::kNetFaultKindCount] = {};
  for (std::size_t shard = 0; shard < 8; ++shard) {
    for (int attempt = 1; attempt <= 16; ++attempt) {
      const auto kind = a.net_fault_kind(shard, attempt);
      EXPECT_EQ(kind, b.net_fault_kind(shard, attempt));
      seen[static_cast<int>(kind)] = true;
      EXPECT_STRNE(fbf::util::net_fault_kind_name(kind), "?");
    }
  }
  for (const bool kind_seen : seen) {
    EXPECT_TRUE(kind_seen) << "a fault kind never drawn in 128 draws";
  }
}

TEST(FaultInjector, PureDecisionsMatchCountingOnes) {
  FaultConfig config;
  config.seed = 55;
  config.shard_fail_rate = 0.5;
  const FaultInjector pure(config);
  FaultInjector counting(config);
  for (std::size_t shard = 0; shard < 6; ++shard) {
    for (int attempt = 1; attempt <= 6; ++attempt) {
      EXPECT_EQ(pure.would_fail(shard, attempt),
                counting.shard_attempt_fails(shard, attempt));
    }
  }
}

TEST(FaultInjector, RateOneAlwaysFiresRateZeroNever) {
  FaultConfig always;
  always.shard_fail_rate = 1.0;
  FaultInjector on(always);
  for (std::size_t shard = 0; shard < 8; ++shard) {
    EXPECT_TRUE(on.shard_attempt_fails(shard, 1));
  }
  EXPECT_EQ(on.counters().shard_failures, 8u);
}

TEST(FaultInjector, PermanentShardFailsEveryAttempt) {
  FaultConfig config;
  config.fail_shard = 3;
  FaultInjector injector(config);
  for (int attempt = 1; attempt <= 10; ++attempt) {
    EXPECT_TRUE(injector.shard_attempt_fails(3, attempt));
    EXPECT_FALSE(injector.shard_attempt_fails(2, attempt));
  }
}

TEST(FaultInjector, CorruptionFlipsExactlyOneBit) {
  FaultConfig config;
  config.seed = 11;
  config.snapshot_corrupt_rate = 1.0;
  FaultInjector injector(config);
  const std::string original(256, 'a');
  std::string bytes = original;
  const auto offset = injector.corrupt_bytes(bytes, "snap", 0);
  ASSERT_TRUE(offset.has_value());
  ASSERT_LT(*offset, bytes.size());
  EXPECT_NE(bytes, original);
  int differing = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    if (bytes[i] != original[i]) {
      ++differing;
      EXPECT_EQ(i, *offset);
    }
  }
  EXPECT_EQ(differing, 1);
  EXPECT_EQ(injector.counters().bytes_corrupted, 1u);
}

TEST(FaultInjector, TruncationAlwaysShortensTheWrite) {
  FaultConfig config;
  config.seed = 13;
  config.journal_truncate_rate = 1.0;
  FaultInjector injector(config);
  for (int i = 0; i < 50; ++i) {
    EXPECT_LT(injector.truncated_size(
                  1000, "journal", static_cast<std::uint64_t>(i)),
              1000u);
  }
  EXPECT_EQ(injector.counters().truncations, 50u);
}

TEST(FaultInjector, RatesAreApproximatelyHonoured) {
  FaultConfig config;
  config.seed = 17;
  config.shard_fail_rate = 0.25;
  FaultInjector injector(config);
  int failures = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    if (injector.shard_attempt_fails(static_cast<std::size_t>(i), 1)) {
      ++failures;
    }
  }
  const double rate = static_cast<double>(failures) / n;
  EXPECT_NEAR(rate, 0.25, 0.03);
}

}  // namespace
