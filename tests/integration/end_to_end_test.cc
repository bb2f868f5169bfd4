// Integration tests: the full stack (synthetic data -> training -> filtered
// evaluation) exercised the way the benchmark harness uses it, including
// the paper's headline qualitative claims at miniature scale:
//   - every scorer trains end-to-end with every sampler;
//   - on every train seed 1-10 × data seed {1234, 77}:
//       NSCaching's gradients stay larger than Bernoulli's (Figure 10),
//       NSCaching's NZL stays higher than Bernoulli's (Figure 7), and
//       NSCaching matches or beats Bernoulli on MRR (Table IV's direction);
//   - the tail cache drifts toward type-consistent entities (Table VI).
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <tuple>

#include "core/nscaching_sampler.h"
#include "kg/kg_index.h"
#include "kg/synthetic.h"
#include "sampler/bernoulli_sampler.h"
#include "train/experiment.h"
#include "train/classification.h"

namespace nsc {
namespace {

Dataset MediumDataset(uint64_t seed = 1234) {
  SyntheticKgConfig c;
  c.num_entities = 250;
  c.num_relations = 6;
  c.num_triples = 2500;
  c.valid_fraction = 0.05;
  c.test_fraction = 0.05;
  c.seed = seed;
  return GenerateSyntheticKg(c);
}

PipelineConfig BaseConfig(SamplerKind kind, const std::string& scorer) {
  PipelineConfig c;
  c.scorer = scorer;
  c.sampler = kind;
  c.train.dim = 16;
  c.train.epochs = 12;
  c.train.learning_rate = 0.005;
  c.train.margin = 4.0;
  c.train.seed = 9;
  c.train.l2_lambda =
      (scorer == "distmult" || scorer == "complex") ? 0.01 : 0.0;
  c.nscaching.n1 = 10;
  c.nscaching.n2 = 10;
  c.kbgan.candidate_set_size = 10;
  c.kbgan.generator_dim = 16;
  c.eval_threads = 4;
  return c;
}

TEST(EndToEndTest, EveryScorerTrainsWithNSCaching) {
  const Dataset data = MediumDataset();
  for (const std::string scorer :
       {"transe", "transh", "transd", "distmult", "complex"}) {
    PipelineConfig config = BaseConfig(SamplerKind::kNSCaching, scorer);
    config.train.epochs = 6;
    const PipelineResult result = RunPipeline(data, config);
    // Random MRR over 250 entities ~ 0.02; trained must clearly beat it.
    EXPECT_GT(result.test_metrics.mrr(), 0.05) << scorer;
  }
}

// Mean gradient norm over the last four epochs.
double GradTail(const PipelineResult& result) {
  const size_t take = 4;
  double tail = 0.0;
  for (size_t i = result.epoch_stats.size() - take;
       i < result.epoch_stats.size(); ++i) {
    tail += result.epoch_stats[i].mean_grad_norm;
  }
  return tail / take;
}

// Parameters: (data seed, train seed). One Bernoulli and one NSCaching
// run per combination serve all three claims: gradient-norm tracking
// reads the gradients and changes nothing else.
class PaperClaimsSeedSweep
    : public testing::TestWithParam<std::tuple<uint64_t, uint64_t>> {};

TEST_P(PaperClaimsSeedSweep, NSCachingHoldsItsClaimsOverBernoulli) {
  const Dataset data = MediumDataset(std::get<0>(GetParam()));
  auto run = [&](SamplerKind kind) {
    PipelineConfig config = BaseConfig(kind, "transe");
    config.train.seed = std::get<1>(GetParam());
    config.train.track_grad_norm = true;
    return RunPipeline(data, config);
  };
  const PipelineResult bernoulli = run(SamplerKind::kBernoulli);
  const PipelineResult nscaching = run(SamplerKind::kNSCaching);
  EXPECT_GT(GradTail(nscaching), GradTail(bernoulli))
      << "Figure 10 direction violated";
  EXPECT_GT(nscaching.epoch_stats.back().nonzero_loss_ratio,
            bernoulli.epoch_stats.back().nonzero_loss_ratio)
      << "Figure 7 direction violated";
  // Direction of Table IV; small slack for miniature-scale noise.
  EXPECT_GE(nscaching.test_metrics.mrr(), bernoulli.test_metrics.mrr() * 0.9)
      << "Table IV direction violated";
}

INSTANTIATE_TEST_SUITE_P(
    TrainSeeds1To10, PaperClaimsSeedSweep,
    testing::Combine(testing::Values<uint64_t>(1234, 77),
                     testing::Range<uint64_t>(1, 11)));

TEST(EndToEndTest, ClassificationAccuracyAboveChanceAfterTraining) {
  const Dataset data = MediumDataset();
  const PipelineResult result =
      RunPipeline(data, BaseConfig(SamplerKind::kNSCaching, "transd"));
  const KgIndex all(std::vector<const TripleStore*>{&data.train, &data.valid,
                                                    &data.test});
  const double acc = EvaluateTripleClassification(*result.model, data.valid,
                                                  data.test, all, 4242);
  EXPECT_GT(acc, 55.0);
}

TEST(EndToEndTest, CacheDriftsTowardTypeConsistentEntities) {
  // Table VI at miniature scale: train on the professions KG and watch the
  // tail cache of a (person, profession, ?) positive fill with profession
  // entities (ids < 24 by construction).
  const Dataset data = GenerateProfessionsKg(250, 25, 21);
  const KgIndex train_index(data.train);
  KgeModel model(data.num_entities(), data.num_relations(), 16,
                 MakeScoringFunction("transe"));
  Rng rng(3);
  model.InitXavier(&rng);

  NSCachingConfig ns_config;
  ns_config.n1 = 10;
  ns_config.n2 = 10;
  NSCachingSampler sampler(&model, &train_index, ns_config);

  TrainConfig t_config;
  t_config.dim = 16;
  t_config.learning_rate = 0.05;
  t_config.margin = 3.0;
  t_config.seed = 8;
  Trainer trainer(&model, &data.train, &sampler, t_config);

  const RelationId r_prof = data.relations.Find("profession");
  ASSERT_GE(r_prof, 0);
  Triple probe{-1, r_prof, -1};
  for (const Triple& x : data.train) {
    if (x.r == r_prof) {
      probe = x;
      break;
    }
  }
  ASSERT_GE(probe.h, 0);

  auto profession_fraction = [&]() {
    const auto* entry = sampler.tail_cache().Find(PackHr(probe.h, probe.r));
    if (entry == nullptr) return 0.0;
    int professions = 0;
    for (EntityId e : *entry) professions += (e < 24);
    return static_cast<double>(professions) / entry->size();
  };

  for (int e = 0; e < 12; ++e) trainer.RunEpoch();
  // 24 professions out of ~300 entities: uniform chance is ~8%. After
  // training, the cache should be enriched well beyond chance.
  EXPECT_GT(profession_fraction(), 0.3);
}

TEST(EndToEndTest, BoundedCacheTrainsComparably) {
  // The §VI future-work memory bound: an LRU-capped cache must still train
  // to a reasonable model (evicted keys just restart their warm-up).
  const Dataset data = MediumDataset();
  const KgIndex train_index(data.train);
  auto run = [&](size_t cap) {
    KgeModel model(data.num_entities(), data.num_relations(), 16,
                   MakeScoringFunction("transe"));
    Rng rng(4);
    model.InitXavier(&rng);
    NSCachingConfig ns;
    ns.n1 = 10;
    ns.n2 = 10;
    ns.max_cache_entries = cap;
    NSCachingSampler sampler(&model, &train_index, ns);
    TrainConfig config;
    config.dim = 16;
    config.learning_rate = 0.005;
    config.margin = 4.0;
    config.seed = 6;
    Trainer trainer(&model, &data.train, &sampler, config);
    for (int e = 0; e < 10; ++e) trainer.RunEpoch();
    const KgIndex filter(std::vector<const TripleStore*>{
        &data.train, &data.valid, &data.test});
    return EvaluateLinkPrediction(model, data.test, filter).mrr();
  };
  const double unbounded = run(0);
  const double capped = run(200);  // Far fewer keys than positives touch.
  EXPECT_GT(capped, 0.05);
  EXPECT_GT(capped, unbounded * 0.5);
}

TEST(EndToEndTest, ExtensionScorersTrainEndToEnd) {
  // TransR / HolE / RESCAL are beyond the paper's Table III set but must
  // ride the same pipeline.
  const Dataset data = MediumDataset();
  for (const std::string scorer : {"transr", "hole", "rescal"}) {
    PipelineConfig config = BaseConfig(SamplerKind::kNSCaching, scorer);
    config.train.epochs = 6;
    config.train.dim = 8;  // d^2 relation rows stay small.
    const PipelineResult result = RunPipeline(data, config);
    EXPECT_GT(result.test_metrics.mrr(), 0.03) << scorer;
  }
}

TEST(EndToEndTest, InverseTwinDatasetIsEasierThanClean) {
  // The WN18-vs-WN18RR contrast (Table IV): identical generator except for
  // inverse twins must yield higher test MRR.
  SyntheticKgConfig with_twins;
  with_twins.num_entities = 200;
  with_twins.num_relations = 8;
  with_twins.num_triples = 2000;
  with_twins.inverse_twin_fraction = 1.0;
  with_twins.seed = 500;
  SyntheticKgConfig clean = with_twins;
  clean.inverse_twin_fraction = 0.0;
  clean.seed = 500;

  const Dataset easy = GenerateSyntheticKg(with_twins);
  const Dataset hard = GenerateSyntheticKg(clean);
  PipelineConfig config = BaseConfig(SamplerKind::kBernoulli, "transe");
  config.train.epochs = 10;
  const double easy_mrr = RunPipeline(easy, config).test_metrics.mrr();
  const double hard_mrr = RunPipeline(hard, config).test_metrics.mrr();
  EXPECT_GT(easy_mrr, hard_mrr);
}

}  // namespace
}  // namespace nsc
