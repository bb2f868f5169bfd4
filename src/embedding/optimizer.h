// Sparse first-order optimizers. KG embedding gradients touch only the
// handful of rows involved in each (positive, negative) pair, so updates
// are applied per-row; Adam/Adagrad keep dense moment buffers but only
// read/write the touched rows (standard "sparse Adam" semantics: bias
// correction uses the global step count). The paper trains with Adam [22].
#ifndef NSCACHING_EMBEDDING_OPTIMIZER_H_
#define NSCACHING_EMBEDDING_OPTIMIZER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "embedding/embedding_table.h"

namespace nsc {

/// Per-table optimizer state; Apply performs one descent step on one row.
class Optimizer {
 public:
  virtual ~Optimizer() = default;
  virtual std::string name() const = 0;

  /// Increments the global step (call once per mini-batch).
  virtual void BeginStep() {}

  /// Applies a descent update to `table` row `row` given ∂loss/∂row.
  virtual void Apply(EmbeddingTable* table, int32_t row,
                     const float* grad) = 0;

  /// Batched sparse apply: one update per (rows[i], grads + i*grad_stride)
  /// slot, in slot order, within the current step (callers BeginStep()
  /// once per mini-batch first). This is the shape the fused trainer path
  /// drives straight from a GradAccumulator's flat slot storage. The
  /// default loops Apply; stateful optimizers may override to amortize
  /// per-step work (e.g. Adam's bias-correction terms).
  virtual void ApplyBatch(EmbeddingTable* table, const int32_t* rows,
                          size_t n, const float* grads, size_t grad_stride) {
    for (size_t s = 0; s < n; ++s) {
      Apply(table, rows[s], grads + s * grad_stride);
    }
  }

  virtual double learning_rate() const = 0;
};

/// Plain SGD: p ← p − lr · g.
class SgdOptimizer : public Optimizer {
 public:
  explicit SgdOptimizer(double lr) : lr_(lr) {}
  std::string name() const override { return "sgd"; }
  void Apply(EmbeddingTable* table, int32_t row,
             const float* grad) override;
  double learning_rate() const override { return lr_; }

 private:
  double lr_;
};

/// Adagrad: per-coordinate accumulated squared gradients.
class AdagradOptimizer : public Optimizer {
 public:
  AdagradOptimizer(double lr, const EmbeddingTable& shape,
                   double eps = 1e-8);
  std::string name() const override { return "adagrad"; }
  void Apply(EmbeddingTable* table, int32_t row,
             const float* grad) override;
  double learning_rate() const override { return lr_; }

 private:
  double lr_;
  double eps_;
  // Moment storage mirrors the table geometry exactly — same rows and
  // stride (pad_lanes = stride reproduces it, since stride >= width) —
  // so moment rows stay aligned; `grad` stays logical-width.
  EmbeddingTable accum_;
  int width_;
  int stride_;
};

/// Adam with default β₁=0.9, β₂=0.999 (the paper adopts Adam's defaults
/// except the learning rate).
class AdamOptimizer : public Optimizer {
 public:
  AdamOptimizer(double lr, const EmbeddingTable& shape,
                double beta1 = 0.9, double beta2 = 0.999, double eps = 1e-8);
  std::string name() const override { return "adam"; }
  /// Atomic so Hogwild workers can step concurrently; the count is exact,
  /// and in single-thread mode this matches the plain increment exactly.
  void BeginStep() override {
    step_.fetch_add(1, std::memory_order_relaxed);
  }
  void Apply(EmbeddingTable* table, int32_t row,
             const float* grad) override;
  double learning_rate() const override { return lr_; }
  int64_t step() const { return step_.load(std::memory_order_relaxed); }

 private:
  double lr_, beta1_, beta2_, eps_;
  std::atomic<int64_t> step_{0};
  EmbeddingTable m_;  // First moment, same geometry as the table.
  EmbeddingTable v_;  // Second moment.
  int width_;
  int stride_;
};

/// Factory: "sgd" | "adagrad" | "adam"; `shape` supplies moment
/// geometry (rows and stride).
std::unique_ptr<Optimizer> MakeOptimizer(const std::string& name, double lr,
                                         const EmbeddingTable& shape);

}  // namespace nsc

#endif  // NSCACHING_EMBEDDING_OPTIMIZER_H_
