#include "embedding/optimizer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace nsc {
namespace {

// Minimises f(p) = 0.5 * ||p - target||^2 on one row; every optimizer must
// converge on this convex quadratic.
void DriveToTarget(Optimizer* opt, EmbeddingTable* table,
                   const std::vector<float>& target, int steps) {
  std::vector<float> grad(table->width());
  for (int s = 0; s < steps; ++s) {
    opt->BeginStep();
    float* p = table->Row(0);
    for (int i = 0; i < table->width(); ++i) grad[i] = p[i] - target[i];
    opt->Apply(table, 0, grad.data());
  }
}

TEST(SgdOptimizerTest, SingleStepIsExact) {
  EmbeddingTable table(1, 2);
  table.Row(0)[0] = 1.0f;
  table.Row(0)[1] = -2.0f;
  SgdOptimizer opt(0.1);
  const float grad[] = {0.5f, -1.0f};
  opt.Apply(&table, 0, grad);
  EXPECT_FLOAT_EQ(table.Row(0)[0], 1.0f - 0.1f * 0.5f);
  EXPECT_FLOAT_EQ(table.Row(0)[1], -2.0f + 0.1f * 1.0f);
}

TEST(SgdOptimizerTest, ConvergesOnQuadratic) {
  EmbeddingTable table(1, 3);
  SgdOptimizer opt(0.2);
  DriveToTarget(&opt, &table, {1.0f, -1.0f, 0.5f}, 200);
  EXPECT_NEAR(table.Row(0)[0], 1.0f, 1e-4);
  EXPECT_NEAR(table.Row(0)[1], -1.0f, 1e-4);
  EXPECT_NEAR(table.Row(0)[2], 0.5f, 1e-4);
}

TEST(AdagradOptimizerTest, ConvergesOnQuadratic) {
  EmbeddingTable table(1, 3);
  AdagradOptimizer opt(0.5, table);
  DriveToTarget(&opt, &table, {1.0f, -1.0f, 0.5f}, 2000);
  EXPECT_NEAR(table.Row(0)[0], 1.0f, 1e-2);
  EXPECT_NEAR(table.Row(0)[1], -1.0f, 1e-2);
}

TEST(AdagradOptimizerTest, StepSizesShrink) {
  EmbeddingTable table(1, 1);
  AdagradOptimizer opt(1.0, table);
  const float grad[] = {1.0f};
  opt.Apply(&table, 0, grad);
  const float first_step = -table.Row(0)[0];
  const float before = table.Row(0)[0];
  opt.Apply(&table, 0, grad);
  const float second_step = before - table.Row(0)[0];
  EXPECT_LT(second_step, first_step);
}

TEST(AdamOptimizerTest, FirstStepApproxLearningRate) {
  // With bias correction, Adam's first update is ~lr * sign(grad).
  EmbeddingTable table(1, 2);
  AdamOptimizer opt(0.01, table);
  opt.BeginStep();
  const float grad[] = {0.3f, -4.0f};
  opt.Apply(&table, 0, grad);
  EXPECT_NEAR(table.Row(0)[0], -0.01f, 1e-4);
  EXPECT_NEAR(table.Row(0)[1], 0.01f, 1e-4);
}

TEST(AdamOptimizerTest, ConvergesOnQuadratic) {
  EmbeddingTable table(1, 3);
  AdamOptimizer opt(0.05, table);
  DriveToTarget(&opt, &table, {1.0f, -1.0f, 0.5f}, 2000);
  EXPECT_NEAR(table.Row(0)[0], 1.0f, 2e-2);
  EXPECT_NEAR(table.Row(0)[1], -1.0f, 2e-2);
  EXPECT_NEAR(table.Row(0)[2], 0.5f, 2e-2);
}

TEST(AdamOptimizerTest, SparseRowsIndependent) {
  EmbeddingTable table(3, 2);
  AdamOptimizer opt(0.1, table);
  opt.BeginStep();
  const float grad[] = {1.0f, 1.0f};
  opt.Apply(&table, 1, grad);
  // Untouched rows remain exactly zero.
  EXPECT_EQ(table.Row(0)[0], 0.0f);
  EXPECT_EQ(table.Row(2)[1], 0.0f);
  EXPECT_NE(table.Row(1)[0], 0.0f);
}

TEST(AdamOptimizerDeathTest, ApplyBeforeBeginStepAborts) {
  EmbeddingTable table(1, 1);
  AdamOptimizer opt(0.1, table);
  const float grad[] = {1.0f};
  EXPECT_DEATH(opt.Apply(&table, 0, grad), "BeginStep");
}

TEST(OptimizerFactoryTest, KnownAndUnknownNames) {
  EmbeddingTable shape(2, 2);
  EXPECT_NE(MakeOptimizer("sgd", 0.1, shape), nullptr);
  EXPECT_NE(MakeOptimizer("adagrad", 0.1, shape), nullptr);
  EXPECT_NE(MakeOptimizer("adam", 0.1, shape), nullptr);
  EXPECT_EQ(MakeOptimizer("momentum", 0.1, shape), nullptr);
  EXPECT_EQ(MakeOptimizer("adam", 0.1, shape)->name(), "adam");
}

}  // namespace
}  // namespace nsc
