// End-to-end experiment pipeline shared by the benchmark harness and the
// examples: dataset -> model -> (optional Bernoulli pretrain) -> sampler ->
// epochs with periodic timed evaluation -> best-validation snapshot ->
// final filtered test metrics. This is the machinery behind Table IV/V and
// Figures 2-5 of the paper.
#ifndef NSCACHING_TRAIN_EXPERIMENT_H_
#define NSCACHING_TRAIN_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "core/nscaching_sampler.h"
#include "embedding/model.h"
#include "kg/dataset.h"
#include "kg/kg_index.h"
#include "sampler/kbgan_sampler.h"
#include "train/link_prediction.h"
#include "train/metrics.h"
#include "train/train_config.h"
#include "train/trainer.h"

namespace nsc {

/// Which negative-sampling method drives training.
enum class SamplerKind { kUniform, kBernoulli, kKbgan, kNSCaching };

std::string SamplerKindName(SamplerKind kind);

/// Full pipeline configuration.
struct PipelineConfig {
  std::string scorer = "transe";
  TrainConfig train;
  SamplerKind sampler = SamplerKind::kBernoulli;
  NSCachingConfig nscaching;
  KbganConfig kbgan;

  /// Bernoulli warm-start epochs before the chosen sampler takes over
  /// (the paper's "+pretrain" regime); 0 = from scratch. For KBGAN the
  /// generator is warm-started with a TransE model pretrained alongside.
  int pretrain_epochs = 0;

  /// Periodic *test* evaluation cadence for convergence curves
  /// (Figures 2-5); 0 disables.
  int eval_test_every = 0;
  /// Periodic *validation* cadence for best-model selection (the paper
  /// picks the checkpoint with the best validation MRR); 0 disables and
  /// the final model is used.
  int eval_valid_every = 0;
  /// Subsample size for the periodic evaluations (0 = all triples); the
  /// final test evaluation always uses every test triple.
  size_t periodic_eval_max_triples = 0;
  int eval_threads = 0;  // <= 0: hardware default.
};

/// One point of a convergence-vs-time curve.
struct SeriesPoint {
  int epoch = 0;
  double seconds = 0.0;  // Cumulative *training* time (eval excluded).
  double mrr = 0.0;
  double hits10 = 0.0;
  double mr = 0.0;
};

/// Everything a bench needs from one run.
struct PipelineResult {
  RankingMetrics test_metrics;          // Full filtered test evaluation.
  std::vector<SeriesPoint> test_series; // Periodic test evals (may be empty).
  std::vector<EpochStats> epoch_stats;  // Loss/NZL/grad-norm per epoch.
  std::vector<double> cache_ce;         // NSCaching CE per epoch (else empty).
  double train_seconds = 0.0;
  int best_epoch = -1;                  // Epoch of the reported checkpoint.
  std::unique_ptr<KgeModel> model;      // The evaluated checkpoint.
};

/// Builds the sampler named by `kind` over `model`/`index`.
std::unique_ptr<NegativeSampler> MakeSampler(SamplerKind kind,
                                             const KgeModel* model,
                                             const KgIndex* train_index,
                                             const PipelineConfig& config);

/// Runs the full pipeline on `dataset`. Deterministic in config.train.seed.
PipelineResult RunPipeline(const Dataset& dataset, const PipelineConfig& config);

}  // namespace nsc

#endif  // NSCACHING_TRAIN_EXPERIMENT_H_
