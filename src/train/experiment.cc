#include "train/experiment.h"

#include "embedding/scoring_function.h"
#include "sampler/bernoulli_sampler.h"
#include "sampler/uniform_sampler.h"
#include "util/logging.h"

namespace nsc {

std::string SamplerKindName(SamplerKind kind) {
  switch (kind) {
    case SamplerKind::kUniform:
      return "uniform";
    case SamplerKind::kBernoulli:
      return "bernoulli";
    case SamplerKind::kKbgan:
      return "kbgan";
    case SamplerKind::kNSCaching:
      return "nscaching";
  }
  return "?";
}

std::unique_ptr<NegativeSampler> MakeSampler(SamplerKind kind,
                                             const KgeModel* model,
                                             const KgIndex* train_index,
                                             const PipelineConfig& config) {
  switch (kind) {
    case SamplerKind::kUniform:
      return std::make_unique<UniformSampler>(model->num_entities(),
                                              train_index);
    case SamplerKind::kBernoulli:
      return std::make_unique<BernoulliSampler>(model->num_entities(),
                                                train_index);
    case SamplerKind::kKbgan:
      return std::make_unique<KbganSampler>(model->num_entities(),
                                            model->num_relations(),
                                            train_index, config.kbgan);
    case SamplerKind::kNSCaching:
      return std::make_unique<NSCachingSampler>(model, train_index,
                                                config.nscaching);
  }
  return nullptr;
}

PipelineResult RunPipeline(const Dataset& dataset,
                           const PipelineConfig& config) {
  PipelineResult result;

  const KgIndex train_index(dataset.train);
  const KgIndex filter_index(std::vector<const TripleStore*>{
      &dataset.train, &dataset.valid, &dataset.test});

  auto scorer = MakeScoringFunction(config.scorer);
  CHECK(scorer != nullptr) << "unknown scorer " << config.scorer;
  auto model = std::make_unique<KgeModel>(dataset.num_entities(),
                                          dataset.num_relations(),
                                          config.train.dim, std::move(scorer));
  Rng init_rng(config.train.seed ^ 0xC0FFEE);
  model->InitXavier(&init_rng);

  // --- Optional Bernoulli pretrain (the paper's warm start) --------------
  if (config.pretrain_epochs > 0) {
    BernoulliSampler pretrain_sampler(model->num_entities(), &train_index);
    TrainConfig pre_cfg = config.train;
    pre_cfg.epochs = config.pretrain_epochs;
    Trainer pretrainer(model.get(), &dataset.train, &pretrain_sampler, pre_cfg);
    for (int e = 0; e < config.pretrain_epochs; ++e) pretrainer.RunEpoch();
    result.train_seconds += pretrainer.cumulative_seconds();
  }

  auto sampler = MakeSampler(config.sampler, model.get(), &train_index, config);
  CHECK(sampler != nullptr);

  // KBGAN with pretrain additionally warm-starts the generator with a
  // TransE model trained under Bernoulli sampling, per [9].
  if (config.sampler == SamplerKind::kKbgan && config.pretrain_epochs > 0) {
    KgeModel generator_seed(dataset.num_entities(), dataset.num_relations(),
                            config.kbgan.generator_dim,
                            MakeScoringFunction("transe"));
    Rng gen_rng(config.train.seed ^ 0xBADF00D);
    generator_seed.InitXavier(&gen_rng);
    BernoulliSampler gen_sampler(generator_seed.num_entities(), &train_index);
    TrainConfig gen_cfg = config.train;
    gen_cfg.dim = config.kbgan.generator_dim;
    gen_cfg.epochs = config.pretrain_epochs;
    Trainer gen_trainer(&generator_seed, &dataset.train, &gen_sampler, gen_cfg);
    for (int e = 0; e < config.pretrain_epochs; ++e) gen_trainer.RunEpoch();
    static_cast<KbganSampler*>(sampler.get())
        ->WarmStartGenerator(generator_seed);
  }

  Trainer trainer(model.get(), &dataset.train, sampler.get(), config.train);

  LinkPredictionOptions periodic_opts;
  periodic_opts.max_triples = config.periodic_eval_max_triples;
  periodic_opts.num_threads = config.eval_threads;

  std::unique_ptr<KgeModel> best_model;
  double best_valid_mrr = -1.0;

  auto* nscaching =
      config.sampler == SamplerKind::kNSCaching
          ? static_cast<NSCachingSampler*>(sampler.get())
          : nullptr;

  for (int e = 0; e < config.train.epochs; ++e) {
    if (nscaching != nullptr) nscaching->ResetStats();
    result.epoch_stats.push_back(trainer.RunEpoch());
    if (nscaching != nullptr) {
      result.cache_ce.push_back(nscaching->stats().MeanChangedElements());
    }

    const int done = e + 1;
    if (config.eval_test_every > 0 &&
        (done % config.eval_test_every == 0 || done == config.train.epochs)) {
      const RankingMetrics m = EvaluateLinkPrediction(
          *model, dataset.test, filter_index, periodic_opts);
      result.test_series.push_back({done, trainer.cumulative_seconds(),
                                    m.mrr(), m.hits_at(10), m.mr()});
    }
    if (config.eval_valid_every > 0 && !dataset.valid.empty() &&
        (done % config.eval_valid_every == 0 || done == config.train.epochs)) {
      const RankingMetrics m = EvaluateLinkPrediction(
          *model, dataset.valid, filter_index, periodic_opts);
      if (m.mrr() > best_valid_mrr) {
        best_valid_mrr = m.mrr();
        best_model = std::make_unique<KgeModel>(model->Clone());
        result.best_epoch = done;
      }
    }
  }
  result.train_seconds += trainer.cumulative_seconds();

  if (best_model != nullptr) {
    result.model = std::move(best_model);
  } else {
    result.best_epoch = config.train.epochs;
    result.model = std::move(model);
  }

  LinkPredictionOptions final_opts;
  final_opts.num_threads = config.eval_threads;
  result.test_metrics = EvaluateLinkPrediction(*result.model, dataset.test,
                                               filter_index, final_opts);
  return result;
}

}  // namespace nsc
