#include "train/trainer.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "serve/snapshot.h"
#include "util/logging.h"
#include "util/math.h"

namespace nsc {

Trainer::Trainer(KgeModel* model, const TripleStore* train_set,
                 NegativeSampler* sampler, const TrainConfig& config)
    : model_(model),
      train_set_(train_set),
      sampler_(sampler),
      config_(config),
      rng_(config.seed) {
  CHECK(model != nullptr);
  CHECK(train_set != nullptr);
  CHECK(sampler != nullptr);
  CHECK(!train_set->empty());
  loss_ = MakeDefaultLoss(model->scorer(), config.margin);
  entity_opt_ = MakeOptimizer(config.optimizer, config.learning_rate,
                              model->entity_table());
  relation_opt_ = MakeOptimizer(config.optimizer, config.learning_rate,
                                model->relation_table());
  CHECK(entity_opt_ != nullptr) << "unknown optimizer " << config.optimizer;
  order_.resize(train_set->size());
  std::iota(order_.begin(), order_.end(), size_t{0});

  CHECK(config.fused_scoring || config.num_threads == 1)
      << "the pair loop (fused_scoring = false) runs on one thread; got "
         "num_threads = "
      << config.num_threads;
  num_threads_ =
      config.num_threads <= 0 ? DefaultThreadCount() : config.num_threads;
  workers_.resize(static_cast<size_t>(num_threads_));
  // Worker streams come from a seeder distinct from rng_, so the main
  // stream (shuffle + serial sampling) is identical for every thread
  // count.
  Rng stream_seeder(config.seed ^ 0x517cc1b727220a95ULL);
  for (WorkerState& ws : workers_) {
    ws.entity_grads.Configure(model->entity_table().width());
    ws.relation_grad.resize(model->relation_table().width());
    ws.rng = stream_seeder.Split();
  }
  if (num_threads_ > 1) pool_ = std::make_unique<ThreadPool>(num_threads_);
}

Trainer::PairOutcome Trainer::TrainPairStep(const Triple& pos,
                                            const NegativeSample& neg,
                                            WorkerState* ws) {
  PairOutcome out;
  const double pos_score = model_->Score(pos);
  const double neg_score = model_->Score(neg.triple);
  out.neg_score = neg_score;
  const LossGrad lg = loss_->Compute(pos_score, neg_score);
  out.loss = lg.loss;
  if (lg.d_pos == 0.0 && lg.d_neg == 0.0 && config_.l2_lambda == 0.0) {
    return out;
  }

  GradAccumulator& grads = ws->entity_grads;
  grads.Clear();
  std::fill(ws->relation_grad.begin(), ws->relation_grad.end(), 0.0f);
  const int dim = model_->dim();
  const ScoringFunction& scorer = model_->scorer();
  EmbeddingTable& ent = model_->entity_table();
  EmbeddingTable& rel = model_->relation_table();

  // Register all four ids BEFORE taking gradient pointers: GradFor may
  // grow the flat slot storage, invalidating earlier returned pointers.
  grads.GradFor(pos.h);
  grads.GradFor(pos.t);
  grads.GradFor(neg.triple.h);
  grads.GradFor(neg.triple.t);
  float* g_pos_h = grads.GradFor(pos.h);
  float* g_pos_t = grads.GradFor(pos.t);
  float* g_neg_h = grads.GradFor(neg.triple.h);
  float* g_neg_t = grads.GradFor(neg.triple.t);
  float* g_rel = ws->relation_grad.data();

  if (lg.d_pos != 0.0) {
    scorer.Backward(ent.Row(pos.h), rel.Row(pos.r), ent.Row(pos.t), dim,
                    static_cast<float>(lg.d_pos), g_pos_h, g_rel, g_pos_t);
  }
  if (lg.d_neg != 0.0) {
    scorer.Backward(ent.Row(neg.triple.h), rel.Row(neg.triple.r),
                    ent.Row(neg.triple.t), dim, static_cast<float>(lg.d_neg),
                    g_neg_h, g_rel, g_neg_t);
  }

  out.grad_norm = ApplyPairUpdate(pos, ws);
  return out;
}

double Trainer::ApplyPairUpdate(const Triple& pos, WorkerState* ws) {
  GradAccumulator& grads = ws->entity_grads;
  float* g_rel = ws->relation_grad.data();
  EmbeddingTable& ent = model_->entity_table();
  EmbeddingTable& rel = model_->relation_table();

  // L2 penalty λ‖·‖² on every touched row (semantic matching models).
  if (config_.l2_lambda > 0.0) {
    const float two_lambda = static_cast<float>(2.0 * config_.l2_lambda);
    for (size_t s = 0; s < grads.size(); ++s) {
      Axpy(two_lambda, ent.Row(grads.id(s)), grads.grad(s), ent.width());
    }
    Axpy(two_lambda, rel.Row(pos.r), g_rel, rel.width());
  }

  double grad_norm = 0.0;
  if (config_.track_grad_norm) {
    double sq = 0.0;
    const int ew = ent.width();
    for (size_t s = 0; s < grads.size(); ++s) {
      const float* g = grads.grad(s);
      for (int k = 0; k < ew; ++k) sq += double(g[k]) * g[k];
    }
    for (float g : ws->relation_grad) sq += double(g) * g;
    grad_norm = std::sqrt(sq);
  }

  entity_opt_->BeginStep();
  relation_opt_->BeginStep();
  entity_opt_->ApplyBatch(&ent, grads.ids(), grads.size(), grads.grads_flat(),
                          static_cast<size_t>(grads.width()));
  relation_opt_->Apply(&rel, pos.r, g_rel);

  if (config_.apply_entity_constraints) {
    for (size_t s = 0; s < grads.size(); ++s) {
      model_->ProjectEntity(grads.id(s));
    }
    model_->ProjectRelation(pos.r);
  }
  return grad_norm;
}

void Trainer::RunBatchPairLoop(size_t lo, size_t hi) {
  // Each negative is drawn against the rows the previous pair's update
  // left (NSCaching scores its candidates on the live model), and
  // Feedback follows its own pair (KBGAN's queue stays one deep).
  for (size_t i = lo; i < hi; ++i) {
    const Triple& pos = (*train_set_)[order_[i]];
    const NegativeSample neg = sampler_->Sample(pos, &rng_);
    const PairOutcome out = TrainPairStep(pos, neg, &workers_[0]);
    sampler_->Feedback(pos, neg, out.neg_score);
    Accumulate(out);
    if (observer_) observer_(pos, neg, out.loss);
  }
}

void Trainer::GatherBatch(size_t lo, size_t hi) {
  const size_t b = hi - lo;
  pos_batch_.resize(b);
  negs_.resize(b);
  outcomes_.resize(b);
  for (size_t i = 0; i < b; ++i) {
    pos_batch_[i] = (*train_set_)[order_[lo + i]];
  }
}

void Trainer::DrainBatchOutcomes(size_t b) {
  for (size_t i = 0; i < b; ++i) {
    sampler_->Feedback(pos_batch_[i], negs_[i], outcomes_[i].neg_score);
    Accumulate(outcomes_[i]);
    if (observer_) observer_(pos_batch_[i], negs_[i], outcomes_[i].loss);
  }
}

void Trainer::FusedSubStep(size_t lo, size_t hi, WorkerState* ws) {
  // Process the sub-range in fusion blocks: each block's scores are
  // computed in one batched pass against the rows as the previous block
  // left them, bounding score staleness to config_.fused_block pairs.
  const size_t block = config_.fused_block > 0
                           ? static_cast<size_t>(config_.fused_block)
                           : (hi - lo);
  for (size_t blo = lo; blo < hi; blo += block) {
    FusedBlockStep(blo, std::min(hi, blo + block), ws);
  }
}

void Trainer::FusedBlockStep(size_t lo, size_t hi, WorkerState* ws) {
  const size_t n = hi - lo;
  if (n == 0) return;
  FusedScratch& fs = ws->fused;
  EmbeddingTable& ent = model_->entity_table();
  EmbeddingTable& rel = model_->relation_table();
  const ScoringFunction& scorer = model_->scorer();
  const int dim = model_->dim();

  // Score each side of the sub-batch in one batched call through the
  // runtime SIMD dispatch, then differentiate the whole loss batch at
  // once — the fused replacement for two virtual Score calls and a
  // scalar loss per pair.
  fs.pos_h.resize(n);
  fs.pos_r.resize(n);
  fs.pos_t.resize(n);
  fs.neg_h.resize(n);
  fs.neg_r.resize(n);
  fs.neg_t.resize(n);
  fs.pos_scores.resize(n);
  fs.neg_scores.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const Triple& pos = pos_batch_[lo + i];
    const Triple& neg = negs_[lo + i].triple;
    fs.pos_h[i] = ent.Row(pos.h);
    fs.pos_r[i] = rel.Row(pos.r);
    fs.pos_t[i] = ent.Row(pos.t);
    fs.neg_h[i] = ent.Row(neg.h);
    fs.neg_r[i] = rel.Row(neg.r);
    fs.neg_t[i] = ent.Row(neg.t);
  }
  scorer.ScoreBatch(fs.pos_h.data(), fs.pos_r.data(), fs.pos_t.data(), dim, n,
                    fs.pos_scores.data());
  scorer.ScoreBatch(fs.neg_h.data(), fs.neg_r.data(), fs.neg_t.data(), dim, n,
                    fs.neg_scores.data());
  loss_->ComputeBatch(fs.pos_scores, fs.neg_scores, &fs.loss_grad);

  // Backward entries for one pair: at most the positive and negative side.
  fs.bh.resize(2);
  fs.br.resize(2);
  fs.bt.resize(2);
  fs.coeff.resize(2);
  fs.gh.resize(2);
  fs.gr.resize(2);
  fs.gt.resize(2);

  // Gradient + update pass. Scores (and the loss gradients derived from
  // them) are the block's, computed against the pre-block parameters; the
  // update pass itself stays PER PAIR — one sparse optimizer step per
  // pair, exactly the paper's Algorithm 1/2 dynamics — so fused training
  // converges like the pair path at the paper's hyper-parameters instead
  // of taking batch-count-many optimizer steps per epoch. Within-block
  // staleness of the scores is the same asynchrony the Hogwild engine
  // already tolerates across workers. Each pair drives one BackwardBatch
  // call (its active sides, shared entity rows folded by the accumulator)
  // and a batched sparse apply straight from the accumulator slots. The
  // relation gradient reuses the pair path's shared one-row buffer: a
  // corruption never changes the relation, so both sides fold into the
  // single pos.r row (the pair path encodes the same invariant).
  GradAccumulator& eg = ws->entity_grads;
  const bool l2 = config_.l2_lambda > 0.0;
  for (size_t i = 0; i < n; ++i) {
    PairOutcome& out = outcomes_[lo + i];
    out.loss = fs.loss_grad.loss[i];
    out.grad_norm = 0.0;
    out.neg_score = fs.neg_scores[i];
    const double d_pos = fs.loss_grad.d_pos[i];
    const double d_neg = fs.loss_grad.d_neg[i];
    if (d_pos == 0.0 && d_neg == 0.0 && !l2) continue;
    const Triple& pos = pos_batch_[lo + i];
    const Triple& neg = negs_[lo + i].triple;

    // Register all ids BEFORE taking gradient pointers: GradFor may grow
    // the flat slot storage, invalidating earlier returned pointers.
    eg.Clear();
    std::fill(ws->relation_grad.begin(), ws->relation_grad.end(), 0.0f);
    float* g_rel = ws->relation_grad.data();
    eg.GradFor(pos.h);
    eg.GradFor(pos.t);
    eg.GradFor(neg.h);
    eg.GradFor(neg.t);

    size_t e = 0;
    if (d_pos != 0.0) {
      fs.bh[e] = fs.pos_h[i];
      fs.br[e] = fs.pos_r[i];
      fs.bt[e] = fs.pos_t[i];
      fs.coeff[e] = static_cast<float>(d_pos);
      fs.gh[e] = eg.GradFor(pos.h);
      fs.gr[e] = g_rel;
      fs.gt[e] = eg.GradFor(pos.t);
      ++e;
    }
    if (d_neg != 0.0) {
      fs.bh[e] = fs.neg_h[i];
      fs.br[e] = fs.neg_r[i];
      fs.bt[e] = fs.neg_t[i];
      fs.coeff[e] = static_cast<float>(d_neg);
      fs.gh[e] = eg.GradFor(neg.h);
      fs.gr[e] = g_rel;
      fs.gt[e] = eg.GradFor(neg.t);
      ++e;
    }
    if (e > 0) {
      scorer.BackwardBatch(fs.bh.data(), fs.br.data(), fs.bt.data(), dim, e,
                           fs.coeff.data(), fs.gh.data(), fs.gr.data(),
                           fs.gt.data());
    }

    // The shared tail — L2, grad norm, batched sparse apply, projection —
    // runs through the same ApplyPairUpdate as the pair path.
    out.grad_norm = ApplyPairUpdate(pos, ws);
  }
}

void Trainer::RunBatchFusedSerial(size_t lo, size_t hi) {
  const size_t b = hi - lo;
  GatherBatch(lo, hi);
  // One sampling pre-pass: stateless samplers consume rng_ exactly as the
  // interleaved loop would; model-coupled samplers draw against the
  // pre-batch parameters — the fused semantic (the parallel engine already
  // samples ahead of the batch's updates the same way).
  sampler_->SampleBatch(pos_batch_.data(), b, &rng_, negs_.data());
  FusedSubStep(0, b, &workers_[0]);
  DrainBatchOutcomes(b);
}

void Trainer::RunBatchFusedParallel(size_t lo, size_t hi) {
  const size_t b = hi - lo;
  GatherBatch(lo, hi);
  // One contiguous sub-range per worker; sub-steps race lock-free on
  // the shared tables across workers (Hogwild: sparse updates rarely
  // collide, so the lost-update rate is negligible).
  const size_t chunks =
      std::min(b, static_cast<size_t>(num_threads_ > 0 ? num_threads_ : 1));
  const auto chunk_lo = [b, chunks](size_t c) { return c * b / chunks; };
  if (sampler_->thread_safe_sampling()) {
    // Thread-safe samplers (stateless ones, and NSCaching with its
    // sharded cache) draw inside the workers from per-worker streams, so
    // the cache refresh scales with cores too.
    pool_->ParallelFor(0, chunks, [this, &chunk_lo](size_t c, int w) {
      WorkerState& ws = workers_[w];
      const size_t clo = chunk_lo(c), chi = chunk_lo(c + 1);
      for (size_t i = clo; i < chi; ++i) {
        negs_[i] = sampler_->Sample(pos_batch_[i], &ws.rng);
      }
      FusedSubStep(clo, chi, &ws);
    });
  } else {
    // Thread-hostile samplers (KBGAN's generator state): draw the whole
    // batch serially against the pre-batch parameters, then train in
    // parallel.
    sampler_->SampleBatch(pos_batch_.data(), b, &rng_, negs_.data());
    pool_->ParallelFor(0, chunks, [this, &chunk_lo](size_t c, int w) {
      FusedSubStep(chunk_lo(c), chunk_lo(c + 1), &workers_[w]);
    });
  }
  // Feedback and observer run serially, in pair order, after the barrier.
  DrainBatchOutcomes(b);
}

EpochStats Trainer::FinishEpoch(const Stopwatch& watch) {
  EpochStats stats;
  stats.epoch = epoch_;
  const double n = static_cast<double>(order_.size());
  stats.mean_loss = loss_sum_ / n;
  stats.nonzero_loss_ratio = static_cast<double>(nonzero_) / n;
  stats.mean_grad_norm = grad_norm_sum_ / n;
  stats.seconds = watch.Seconds();
  cumulative_seconds_ += stats.seconds;
  ++epoch_;
  return stats;
}

void Trainer::EnableSnapshots(SnapshotPublisher* publisher,
                              int publish_every_batches) {
  CHECK(publisher == nullptr || publish_every_batches > 0);
  publisher_ = publisher;
  publish_every_batches_ = publish_every_batches;
  batches_since_publish_ = 0;
}

void Trainer::StepCompleted() {
  ++global_step_;
  if (publisher_ == nullptr) return;
  if (++batches_since_publish_ < publish_every_batches_) return;
  batches_since_publish_ = 0;
  // At this point every engine (serial or Hogwild) has passed its batch
  // barrier: no worker is touching the tables, so the publisher's copy
  // reads a quiescent model.
  publisher_->Publish(*model_, global_step_);
}

EpochStats Trainer::RunEpoch() {
  Stopwatch watch;
  sampler_->BeginEpoch(epoch_);
  rng_.Shuffle(&order_);
  loss_sum_ = 0.0;
  grad_norm_sum_ = 0.0;
  nonzero_ = 0;

  const size_t n = order_.size();
  const size_t batch =
      config_.batch_size > 0 ? static_cast<size_t>(config_.batch_size) : n;
  for (size_t lo = 0; lo < n; lo += batch) {
    const size_t hi = std::min(n, lo + batch);
    if (!config_.fused_scoring) {
      RunBatchPairLoop(lo, hi);
    } else if (num_threads_ > 1) {
      RunBatchFusedParallel(lo, hi);
    } else {
      RunBatchFusedSerial(lo, hi);
    }
    StepCompleted();
  }
  return FinishEpoch(watch);
}

}  // namespace nsc
