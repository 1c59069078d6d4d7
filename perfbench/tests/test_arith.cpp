// Tests of the benchmark's own arithmetic (runner/arith.hpp).
#include <gtest/gtest.h>

#include <vector>

#include "runner/arith.hpp"

namespace {

using perfbench::Interval;

TEST(PercentileRule, TailNeedsTenSamplesBeyondIt) {
  EXPECT_EQ(perfbench::tail_percentile(0), 50.0);
  EXPECT_EQ(perfbench::tail_percentile(19), 50.0);
  EXPECT_EQ(perfbench::tail_percentile(39), 50.0);
  EXPECT_EQ(perfbench::tail_percentile(40), 75.0);   // 40 * 0.25 = 10
  EXPECT_EQ(perfbench::tail_percentile(99), 75.0);
  EXPECT_EQ(perfbench::tail_percentile(100), 90.0);  // 100 * 0.1 = 10
  EXPECT_EQ(perfbench::tail_percentile(999), 90.0);
  EXPECT_EQ(perfbench::tail_percentile(1000), 99.0);  // 1000 * 0.01 = 10
  EXPECT_EQ(perfbench::tail_percentile(100000), 99.0);  // p99 is the ceiling
}

TEST(PercentileRule, LinearInterpolation) {
  EXPECT_EQ(perfbench::percentile({}, 50.0), 0.0);
  EXPECT_EQ(perfbench::percentile({7.0}, 99.0), 7.0);
  EXPECT_DOUBLE_EQ(perfbench::percentile({4.0, 1.0, 3.0, 2.0}, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(perfbench::percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 75.0), 4.0);
  EXPECT_DOUBLE_EQ(perfbench::percentile({1.0, 2.0}, 100.0), 2.0);
}

TEST(PercentileRule, TailFollowsTheSampleSize) {
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) {
    hundred.push_back(i);
  }
  // 100 samples back p90, not p99.
  EXPECT_DOUBLE_EQ(perfbench::tail(hundred), perfbench::percentile(hundred, 90.0));
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) {
    thousand.push_back(i);
  }
  EXPECT_DOUBLE_EQ(perfbench::tail(thousand), perfbench::percentile(thousand, 99.0));
}

TEST(PercentileRule, WindowedMedianIgnoresABurstInOneWindow) {
  // Three windows of 1000: the middle one carries a burst of slow samples.
  std::vector<double> in_order;
  for (int w = 0; w < 3; ++w) {
    for (int i = 0; i < 1000; ++i) {
      in_order.push_back(w == 1 && i < 600 ? 500.0 : 1.0 + i / 1000.0);
    }
  }
  const std::vector<double> clean(in_order.begin(), in_order.begin() + 1000);
  EXPECT_DOUBLE_EQ(perfbench::windowed_percentile(in_order, 50.0),
                   perfbench::percentile(clean, 50.0));
  EXPECT_GT(perfbench::percentile(in_order, 50.0), perfbench::percentile(clean, 50.0));
  // Below two windows it is the plain percentile.
  const std::vector<double> small(in_order.begin(), in_order.begin() + 1999);
  EXPECT_DOUBLE_EQ(perfbench::windowed_percentile(small, 50.0),
                   perfbench::percentile(small, 50.0));
}

TEST(SpanSelfTime, ParentMinusUnionOfChildren) {
  EXPECT_DOUBLE_EQ(perfbench::self_time({0, 10}, {}), 10.0);
  EXPECT_DOUBLE_EQ(perfbench::self_time({0, 10}, {{2, 5}}), 7.0);
  // Overlapping children count once.
  EXPECT_DOUBLE_EQ(perfbench::self_time({0, 10}, {{2, 6}, {4, 8}}), 4.0);
  // Disjoint children, given out of order.
  EXPECT_DOUBLE_EQ(perfbench::self_time({0, 10}, {{7, 9}, {1, 2}}), 7.0);
  // Children sticking out of the parent are clipped to it.
  EXPECT_DOUBLE_EQ(perfbench::self_time({0, 10}, {{-5, 3}, {8, 20}}), 5.0);
  // A child nested in another child adds nothing.
  EXPECT_DOUBLE_EQ(perfbench::self_time({0, 10}, {{1, 9}, {2, 3}}), 2.0);
  // A child entirely outside the parent covers nothing.
  EXPECT_DOUBLE_EQ(perfbench::self_time({0, 10}, {{11, 12}}), 10.0);
  EXPECT_DOUBLE_EQ(perfbench::self_time({0, 10}, {{0, 10}}), 0.0);
}

TEST(NameCharset, MetricAndWorkloadNames) {
  EXPECT_TRUE(perfbench::valid_name("point-ln-1m"));
  EXPECT_TRUE(perfbench::valid_name("net.self_ms.p50"));
  EXPECT_TRUE(perfbench::valid_name("setup_s"));
  EXPECT_TRUE(perfbench::valid_name("9lives"));
  EXPECT_TRUE(perfbench::valid_name(std::string(64, 'a')));
  EXPECT_FALSE(perfbench::valid_name(""));
  EXPECT_FALSE(perfbench::valid_name(std::string(65, 'a')));
  EXPECT_FALSE(perfbench::valid_name(".hidden"));
  EXPECT_FALSE(perfbench::valid_name("-flag"));
  EXPECT_FALSE(perfbench::valid_name("_x"));
  EXPECT_FALSE(perfbench::valid_name("has space"));
  EXPECT_FALSE(perfbench::valid_name("slash/unit"));
  EXPECT_FALSE(perfbench::valid_name("p99%"));
  EXPECT_FALSE(perfbench::valid_name("caf\xc3\xa9"));
}

}  // namespace
