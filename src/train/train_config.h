// Hyper-parameters of the KG embedding training loop (Algorithm 1/2).
#ifndef NSCACHING_TRAIN_TRAIN_CONFIG_H_
#define NSCACHING_TRAIN_TRAIN_CONFIG_H_

#include <cstdint>
#include <string>

namespace nsc {

/// Everything the Trainer needs besides the model, data and sampler.
/// Defaults reflect the paper's search space midpoints (§IV-B2: d ∈
/// {20..200}, η ∈ {1e-4..1e-1}, γ ∈ {1..4}, λ ∈ {1e-3..1e-1}, Adam).
struct TrainConfig {
  int dim = 50;
  double learning_rate = 0.01;
  std::string optimizer = "adam";
  /// Margin γ of Eq. (1); used by translational models only.
  double margin = 2.0;
  /// L2 penalty λ of the semantic-matching objective; 0 disables.
  double l2_lambda = 0.0;
  int batch_size = 256;
  int epochs = 50;
  /// Worker threads. 1 = one training thread, deterministic for a fixed
  /// seed; >1 = Hogwild-style lock-free parallel execution of each
  /// mini-batch (fused engine only); <= 0 = hardware default.
  int num_threads = 1;
  /// Batch-first fused hot path (the default): each worker's share of a
  /// mini-batch is scored in two ScoreBatch calls through the SIMD
  /// dispatch and the loss batch is differentiated in one
  /// Loss::ComputeBatch; gradients then flow through BackwardBatch + a
  /// batched sparse optimizer apply driven from the GradAccumulator,
  /// keeping the paper's one-optimizer-step-per-pair dynamics (scores are
  /// the block's, so they are stale by at most fused_block pairs).
  /// `false` selects the paper-exact pair loop: each negative is sampled
  /// against the live model and scored with per-pair scalar
  /// Score/Backward, bit-for-bit the same for every batch_size. The
  /// paper-figure benches pin it because RR and NZL are defined on it.
  /// It runs on one thread only: the Trainer CHECK-fails on
  /// fused_scoring = false with num_threads != 1.
  bool fused_scoring = true;
  /// Pairs scored ahead per fused block. Each block of a worker's
  /// sub-range is scored (and its loss differentiated) in one batched
  /// pass, then updated pair-by-pair before the next block is scored, so
  /// loss gradients are computed from scores at most `fused_block` pairs
  /// stale — large enough to amortize the SIMD kernels, small enough that
  /// fused training tracks the pair path's convergence at the paper's
  /// learning rates (unbounded staleness demonstrably diverges for the
  /// logistic family at high lr × large batch). <= 0 means the whole
  /// sub-range is one block.
  int fused_block = 32;
  /// Project entity rows onto the scorer's norm constraint after updates.
  bool apply_entity_constraints = true;
  /// Track per-pair gradient l2 norms (Figure 10); small overhead.
  bool track_grad_norm = false;
  uint64_t seed = 1;

  std::string ToString() const;
};

}  // namespace nsc

#endif  // NSCACHING_TRAIN_TRAIN_CONFIG_H_
