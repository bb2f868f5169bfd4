// The stochastic training loop of Algorithms 1 and 2: shuffled
// mini-batches over the training triples; per positive, one negative is
// drawn from the pluggable NegativeSampler, the pairwise loss of the
// model family is differentiated through the scorer, and touched rows are
// updated by a sparse optimizer. The trainer is where NSCaching, KBGAN
// and the fixed baselines meet the identical surrounding machinery, so
// measured differences are attributable to the sampler alone.
//
// RunEpoch() walks the epoch in mini-batches of TrainConfig::batch_size
// (<= 0: the whole epoch is one batch) and trains each batch on one of
// three engines, chosen from the config:
//   - fused serial (fused_scoring, num_threads == 1, the default): the
//     batch is sampled up front, then each fusion block of at most
//     TrainConfig::fused_block pairs is scored in two
//     ScoringFunction::ScoreBatch calls through the runtime-dispatched
//     SIMD kernels (util/simd.h) and differentiated in one
//     Loss::ComputeBatch; the update pass then walks the pairs driving
//     BackwardBatch + a batched sparse optimizer apply
//     (Optimizer::ApplyBatch) through the GradAccumulator, keeping the
//     paper's one-optimizer-step-per-pair dynamics. Scores are stale by at
//     most fused_block pairs. Deterministic for a fixed seed.
//   - fused Hogwild (fused_scoring, num_threads > 1): each batch is split
//     into one contiguous sub-range per worker of a ThreadPool; workers
//     sample their sub-range from per-worker RNG streams (a serial
//     pre-pass for samplers whose thread_safe_sampling() is false) and
//     run the fused step on it, racing lock-free on the shared embedding
//     tables. Runs are nondeterministic; the sampling streams stay
//     seeded.
//   - the pair loop (fused_scoring = false, num_threads == 1): the
//     paper's Algorithm 1/2 step by step — each negative is drawn against
//     the model the previous pair's update left, then the pair is scored
//     and differentiated with per-pair scalar Score/Backward. Bit-for-bit
//     identical for every batch_size; the paper-figure benches and the
//     convergence goldens pin it.
//     The constructor CHECK-rejects it with num_threads != 1.
// The pair loop and fused serial coincide at batch_size == 1 on the
// forced-scalar path (pinned ULP-bounded by trainer_parallel_test).
#ifndef NSCACHING_TRAIN_TRAINER_H_
#define NSCACHING_TRAIN_TRAINER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "embedding/loss.h"
#include "embedding/model.h"
#include "embedding/optimizer.h"
#include "kg/triple_store.h"
#include "sampler/negative_sampler.h"
#include "train/grad_accumulator.h"
#include "train/train_config.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace nsc {

class SnapshotPublisher;

/// Per-epoch training telemetry.
struct EpochStats {
  int epoch = 0;
  double mean_loss = 0.0;
  /// Fraction of (pos, neg) pairs with non-zero loss — the NZL measure of
  /// Figures 7/8 (exploitation: a useful negative produces gradient).
  double nonzero_loss_ratio = 0.0;
  /// Mean per-pair gradient l2 norm (Figure 10); 0 unless
  /// TrainConfig::track_grad_norm.
  double mean_grad_norm = 0.0;
  /// Wall-clock seconds spent training this epoch (sampling included,
  /// evaluation excluded).
  double seconds = 0.0;
};

/// Observer of every sampled (positive, negative, loss) event; used by the
/// analysis module to compute the repeat ratio (RR) of Figure 7. Always
/// invoked serially, in pair order, even under the parallel engine.
using NegativeObserver =
    std::function<void(const Triple& pos, const NegativeSample& neg,
                       double pair_loss)>;

class Trainer {
 public:
  /// All pointers are borrowed and must outlive the trainer. The loss is
  /// chosen from the scorer's family (margin for translational with
  /// config.margin, logistic for semantic matching). CHECK-fails when
  /// config.fused_scoring is false and config.num_threads is not 1: the
  /// pair loop runs on one thread only.
  Trainer(KgeModel* model, const TripleStore* train_set,
          NegativeSampler* sampler, const TrainConfig& config);

  /// Runs one full pass over the (shuffled) training set on the engine
  /// the config selects (see the file comment): the pair loop when
  /// fused_scoring is false, else fused serial at one thread and fused
  /// Hogwild at more.
  EpochStats RunEpoch();

  /// Epochs completed so far.
  int epoch() const { return epoch_; }

  /// Mini-batches completed so far across all epochs — the step stamped
  /// onto published snapshots.
  int64_t global_step() const { return global_step_; }

  /// Routes serving snapshots (and, through them, async checkpoints)
  /// out of the training loop: after every `publish_every_batches`-th
  /// completed mini-batch the trainer publishes the model to `publisher`
  /// stamped with global_step(). Publication happens at the batch
  /// boundary, where Hogwild workers are parked at the ThreadPool
  /// barrier, so the snapshot copy races with nothing. `publisher` is
  /// borrowed and must outlive the trainer (or be detached by passing
  /// nullptr).
  void EnableSnapshots(SnapshotPublisher* publisher,
                       int publish_every_batches = 1);

  /// Total training seconds across all epochs (evaluation excluded).
  double cumulative_seconds() const { return cumulative_seconds_; }

  void set_negative_observer(NegativeObserver observer) {
    observer_ = std::move(observer);
  }

  const Loss& loss() const { return *loss_; }
  KgeModel* model() { return model_; }

  /// Worker threads the engine actually uses (resolves num_threads <= 0).
  int num_threads() const { return num_threads_; }

 private:
  /// Everything one trained pair reports back to the epoch loop.
  struct PairOutcome {
    double loss = 0.0;
    double grad_norm = 0.0;
    double neg_score = 0.0;  // Discriminator score, for sampler Feedback.
  };

  /// Reusable fused-step buffers: per-pair row pointers and score/loss
  /// batches, plus the BackwardBatch entry arrays (≤ 2 entries per pair —
  /// the active positive and negative sides). Capacity is retained across
  /// batches, so the fused hot path is allocation-free once warm.
  struct FusedScratch {
    std::vector<const float*> pos_h, pos_r, pos_t;
    std::vector<const float*> neg_h, neg_r, neg_t;
    std::vector<double> pos_scores, neg_scores;
    LossBatchGrad loss_grad;
    std::vector<const float*> bh, br, bt;
    std::vector<float> coeff;
    std::vector<float*> gh, gr, gt;
  };

  /// Per-worker mutable state; workers_[0] doubles as the serial scratch.
  ///
  /// Ownership protocol (no mutex — this is index partitioning, which the
  /// thread-safety analysis cannot express, so it is stated here instead):
  /// workers_[i] is written ONLY by the worker running with worker index
  /// i, and only between a ThreadPool::Schedule() handoff and the
  /// matching Wait() barrier — those order the accesses, so the state
  /// needs no lock and no atomics. The main thread touches workers_[i]
  /// exclusively outside Schedule/Wait windows (construction, serial
  /// paths via workers_[0]). Every intentionally unsynchronized access in
  /// the trainer targets the SHARED model tables (Hogwild), never a
  /// WorkerState — see tsan.supp for that inventory.
  struct WorkerState {
    GradAccumulator entity_grads;
    std::vector<float> relation_grad;  // The pair's one touched relation row.
    FusedScratch fused;
    Rng rng{0};  // Independent stream; only used when num_threads_ > 1.
  };

  /// One gradient step on a (positive, negative) pair: scores, loss
  /// gradient, sparse backward into ws's accumulator, optimizer update,
  /// norm projection. Does NOT call sampler Feedback or the observer —
  /// RunBatchPairLoop does, right after the step.
  PairOutcome TrainPairStep(const Triple& pos, const NegativeSample& neg,
                            WorkerState* ws);

  /// The shared tail of one pair's update over ws's gradient state (the
  /// entity accumulator plus the relation-row buffer): L2 penalty,
  /// optional gradient norm (returned), batched sparse optimizer step,
  /// norm projection. Both the pair path and the fused walk end here, so
  /// the parity-critical ordering lives in exactly one place.
  double ApplyPairUpdate(const Triple& pos, WorkerState* ws);

  /// The pair loop over one mini-batch (fused_scoring = false, one
  /// thread): per positive, Sample against the live model, TrainPairStep,
  /// then Feedback, totals and the observer — the paper's Algorithm 1/2
  /// order, so every batch_size trains bit-for-bit identically.
  void RunBatchPairLoop(size_t lo, size_t hi);

  /// Fused mini-batch pass, one thread: pre-sample the batch, then one
  /// fused sub-step over the whole batch.
  void RunBatchFusedSerial(size_t lo, size_t hi);

  /// Fused mini-batch pass, Hogwild: the batch is partitioned into
  /// num_threads contiguous sub-ranges; each worker samples its sub-range
  /// (per-worker RNG, when the sampler's trait allows — else a serial
  /// pre-pass) and runs one fused sub-step on it. Workers race lock-free
  /// on the shared tables across sub-steps (Hogwild). Feedback and the
  /// observer run serially after the barrier.
  void RunBatchFusedParallel(size_t lo, size_t hi);

  /// The fused training step over batch-local pairs [lo, hi) of
  /// pos_batch_/negs_: runs FusedBlockStep over blocks of at most
  /// config_.fused_block pairs, so each block's batched scoring sees the
  /// previous block's updates. Fills outcomes_[lo, hi); Feedback and the
  /// observer are the callers' job, as with TrainPairStep.
  void FusedSubStep(size_t lo, size_t hi, WorkerState* ws);

  /// One fusion block: two ScoreBatch calls (positives, negatives)
  /// through the SIMD dispatch and one Loss::ComputeBatch, then a
  /// per-pair update walk — BackwardBatch over the pair's active sides
  /// into ws's entity accumulator (shared rows folded per unique id) and
  /// the shared relation-row buffer, batched sparse optimizer apply from
  /// the accumulator slots, norm projection of every touched row.
  void FusedBlockStep(size_t lo, size_t hi, WorkerState* ws);

  /// Fills pos_batch_ from the shuffled order and sizes negs_/outcomes_
  /// for one mini-batch [lo, hi) of the epoch.
  void GatherBatch(size_t lo, size_t hi);

  /// The serial, in-pair-order epilogue both fused engines run after
  /// their batch: sampler Feedback, epoch totals, the analysis observer.
  void DrainBatchOutcomes(size_t b);

  /// Closes out the epoch in flight: derives EpochStats from the running
  /// totals, advances the epoch counter and the cumulative clock.
  EpochStats FinishEpoch(const Stopwatch& watch);

  /// Advances global_step_ past one completed mini-batch and publishes to
  /// the attached SnapshotPublisher when the cadence says so.
  void StepCompleted();

  /// Folds one pair's outcome into the running epoch totals. The NZL
  /// threshold is shared with analysis/DynamicsTracker so the two
  /// measurements of Figures 7/8 cannot drift.
  void Accumulate(const PairOutcome& outcome) {
    loss_sum_ += outcome.loss;
    grad_norm_sum_ += outcome.grad_norm;
    if (outcome.loss > kNonzeroLossThreshold) ++nonzero_;
  }

  KgeModel* model_;
  const TripleStore* train_set_;
  NegativeSampler* sampler_;
  TrainConfig config_;
  std::unique_ptr<Loss> loss_;
  std::unique_ptr<Optimizer> entity_opt_;
  std::unique_ptr<Optimizer> relation_opt_;
  Rng rng_;
  int epoch_ = 0;
  double cumulative_seconds_ = 0.0;
  int64_t global_step_ = 0;
  SnapshotPublisher* publisher_ = nullptr;  // Borrowed; null = detached.
  int publish_every_batches_ = 1;
  int batches_since_publish_ = 0;
  NegativeObserver observer_;
  std::vector<size_t> order_;  // Shuffled triple indices, reused.

  int num_threads_ = 1;
  std::unique_ptr<ThreadPool> pool_;  // Created only when num_threads_ > 1.
  std::vector<WorkerState> workers_;

  // Per-batch scratch, reused across batches (no steady-state allocation).
  std::vector<Triple> pos_batch_;
  std::vector<NegativeSample> negs_;
  std::vector<PairOutcome> outcomes_;

  // Running totals of the epoch in flight.
  double loss_sum_ = 0.0;
  double grad_norm_sum_ = 0.0;
  size_t nonzero_ = 0;
};

}  // namespace nsc

#endif  // NSCACHING_TRAIN_TRAINER_H_
