#include "embedding/optimizer.h"

#include <cmath>

#include "util/logging.h"

namespace nsc {

void SgdOptimizer::Apply(EmbeddingTable* table, int32_t row,
                         const float* grad) {
  float* p = table->Row(row);
  const int w = table->width();
  for (int i = 0; i < w; ++i) p[i] -= static_cast<float>(lr_) * grad[i];
}

AdagradOptimizer::AdagradOptimizer(double lr,
                                   const EmbeddingTable& shape,
                                   double eps)
    : lr_(lr),
      eps_(eps),
      accum_(shape.rows(), shape.width(), shape.stride()),
      width_(shape.width()),
      stride_(shape.stride()) {}

void AdagradOptimizer::Apply(EmbeddingTable* table, int32_t row,
                             const float* grad) {
  CHECK_EQ(table->width(), width_);
  CHECK_EQ(table->stride(), stride_);
  float* p = table->Row(row);
  float* a = accum_.Row(row);
  for (int i = 0; i < width_; ++i) {
    a[i] += grad[i] * grad[i];
    p[i] -= static_cast<float>(lr_ * grad[i] / (std::sqrt(double(a[i])) + eps_));
  }
}

AdamOptimizer::AdamOptimizer(double lr, const EmbeddingTable& shape,
                             double beta1, double beta2, double eps)
    : lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      m_(shape.rows(), shape.width(), shape.stride()),
      v_(shape.rows(), shape.width(), shape.stride()),
      width_(shape.width()),
      stride_(shape.stride()) {}

void AdamOptimizer::Apply(EmbeddingTable* table, int32_t row,
                          const float* grad) {
  CHECK_EQ(table->width(), width_);
  CHECK_EQ(table->stride(), stride_);
  const int64_t step = step_.load(std::memory_order_relaxed);
  CHECK_GT(step, 0) << "call BeginStep() before Apply()";
  float* p = table->Row(row);
  float* m = m_.Row(row);
  float* v = v_.Row(row);
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(step));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(step));
  for (int i = 0; i < width_; ++i) {
    m[i] = static_cast<float>(beta1_ * m[i] + (1.0 - beta1_) * grad[i]);
    v[i] = static_cast<float>(beta2_ * v[i] +
                              (1.0 - beta2_) * double(grad[i]) * grad[i]);
    const double mhat = m[i] / bc1;
    const double vhat = v[i] / bc2;
    p[i] -= static_cast<float>(lr_ * mhat / (std::sqrt(vhat) + eps_));
  }
}

std::unique_ptr<Optimizer> MakeOptimizer(const std::string& name, double lr,
                                         const EmbeddingTable& shape) {
  if (name == "sgd") return std::make_unique<SgdOptimizer>(lr);
  if (name == "adagrad") return std::make_unique<AdagradOptimizer>(lr, shape);
  if (name == "adam") return std::make_unique<AdamOptimizer>(lr, shape);
  return nullptr;
}

}  // namespace nsc
