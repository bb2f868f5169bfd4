#include "util/math.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <numeric>
#include <set>

namespace nsc {
namespace {

TEST(LogSumExpTest, MatchesDirectComputation) {
  std::vector<double> x = {0.5, -1.0, 2.0};
  double direct = std::log(std::exp(0.5) + std::exp(-1.0) + std::exp(2.0));
  EXPECT_NEAR(LogSumExp(x), direct, 1e-12);
}

TEST(LogSumExpTest, StableForLargeValues) {
  std::vector<double> x = {1000.0, 1000.0};
  EXPECT_NEAR(LogSumExp(x), 1000.0 + std::log(2.0), 1e-9);
}

TEST(LogSumExpTest, EmptyIsMinusInfinity) {
  EXPECT_TRUE(std::isinf(LogSumExp({})));
  EXPECT_LT(LogSumExp({}), 0.0);
}

TEST(SoftmaxTest, SumsToOneAndOrders) {
  std::vector<double> x = {1.0, 2.0, 3.0};
  SoftmaxInPlace(&x);
  EXPECT_NEAR(x[0] + x[1] + x[2], 1.0, 1e-12);
  EXPECT_LT(x[0], x[1]);
  EXPECT_LT(x[1], x[2]);
}

TEST(SoftmaxTest, StableForHugeLogits) {
  std::vector<double> x = {1e6, 1e6 - 1.0};
  SoftmaxInPlace(&x);
  EXPECT_NEAR(x[0] + x[1], 1.0, 1e-12);
  EXPECT_GT(x[0], x[1]);
}

TEST(SigmoidTest, SymmetryAndRange) {
  EXPECT_NEAR(Sigmoid(0.0), 0.5, 1e-12);
  EXPECT_NEAR(Sigmoid(3.0) + Sigmoid(-3.0), 1.0, 1e-12);
  EXPECT_NEAR(Sigmoid(100.0), 1.0, 1e-12);
  EXPECT_NEAR(Sigmoid(-100.0), 0.0, 1e-12);
}

TEST(Log1pExpTest, MatchesReferenceAndIsStable) {
  EXPECT_NEAR(Log1pExp(0.0), std::log(2.0), 1e-12);
  EXPECT_NEAR(Log1pExp(1.5), std::log1p(std::exp(1.5)), 1e-12);
  EXPECT_NEAR(Log1pExp(100.0), 100.0, 1e-9);
  EXPECT_NEAR(Log1pExp(-100.0), std::exp(-100.0), 1e-12);
}

TEST(VectorOpsTest, DotAndNorms) {
  const float a[] = {1.0f, -2.0f, 3.0f};
  const float b[] = {4.0f, 5.0f, -6.0f};
  EXPECT_FLOAT_EQ(Dot(a, b, 3), 4.0f - 10.0f - 18.0f);
  EXPECT_FLOAT_EQ(L2Norm(a, 3), std::sqrt(14.0f));
  EXPECT_FLOAT_EQ(L1Norm(a, 3), 6.0f);
}

TEST(VectorOpsTest, AxpyAndScale) {
  const float x[] = {1.0f, 2.0f};
  float y[] = {10.0f, 20.0f};
  Axpy(2.0f, x, y, 2);
  EXPECT_FLOAT_EQ(y[0], 12.0f);
  EXPECT_FLOAT_EQ(y[1], 24.0f);
  Scale(0.5f, y, 2);
  EXPECT_FLOAT_EQ(y[0], 6.0f);
  EXPECT_FLOAT_EQ(y[1], 12.0f);
}

TEST(GumbelTopKTest, ReturnsDistinctIndices) {
  Rng rng(3);
  std::vector<double> logits(20, 0.0);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<int> picked;
    GumbelTopK(logits, 5, &rng, &picked);
    std::set<int> unique(picked.begin(), picked.end());
    EXPECT_EQ(unique.size(), 5u);
    for (int i : picked) {
      EXPECT_GE(i, 0);
      EXPECT_LT(i, 20);
    }
  }
}

TEST(GumbelTopKTest, KEqualsNReturnsAll) {
  Rng rng(4);
  std::vector<double> logits = {0.1, 5.0, -2.0};
  std::vector<int> picked;
  GumbelTopK(logits, 3, &rng, &picked);
  std::set<int> unique(picked.begin(), picked.end());
  EXPECT_EQ(unique, (std::set<int>{0, 1, 2}));
}

// Property: Gumbel-top-1 equals categorical sampling under softmax(logits).
TEST(GumbelTopKTest, Top1MatchesSoftmaxFrequencies) {
  Rng rng(5);
  std::vector<double> logits = {0.0, 1.0, 2.0};
  std::vector<double> probs = logits;
  SoftmaxInPlace(&probs);
  std::map<int, int> counts;
  const int n = 60000;
  std::vector<int> picked;
  for (int i = 0; i < n; ++i) {
    GumbelTopK(logits, 1, &rng, &picked);
    ++counts[picked[0]];
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(counts[i] / double(n), probs[i], 0.01) << "index " << i;
  }
}

// Property: high-logit entries are selected (exploitation) but low-logit
// entries still enter occasionally (exploration) — the balance Algorithm 3
// relies on.
TEST(GumbelTopKTest, HighLogitsDominateButDoNotMonopolize) {
  Rng rng(6);
  std::vector<double> logits = {5.0, 5.0, 5.0, 0.0, 0.0, 0.0};
  int high_picked = 0, low_picked = 0;
  const int trials = 2000;
  std::vector<int> picked;
  for (int i = 0; i < trials; ++i) {
    GumbelTopK(logits, 3, &rng, &picked);
    for (int idx : picked) {
      (idx < 3 ? high_picked : low_picked)++;
    }
  }
  EXPECT_GT(high_picked, low_picked * 5);
  EXPECT_GT(low_picked, 0);
}

TEST(TopKTest, DeterministicLargest) {
  std::vector<double> v = {0.5, 3.0, -1.0, 3.0, 2.0};
  auto top = TopK(v, 3);
  ASSERT_EQ(top.size(), 3u);
  // Ties broken by lower index: 1 (3.0), 3 (3.0), 4 (2.0).
  EXPECT_EQ(top[0], 1);
  EXPECT_EQ(top[1], 3);
  EXPECT_EQ(top[2], 4);
}

TEST(TopKTest, FullSelectionIsPermutation) {
  std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
  auto top = TopK(v, 4);
  EXPECT_EQ(top, (std::vector<int>{0, 2, 3, 1}));
}

}  // namespace
}  // namespace nsc
