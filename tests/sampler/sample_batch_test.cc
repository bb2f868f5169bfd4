// SampleBatch contract tests: the default batch draw must consume the RNG
// exactly like sequential Sample() calls (the fused engine pre-samples
// each batch with it, so a stateless sampler draws the same negatives
// there as in the trainer's pair loop), and the stateless_sampling trait
// (which makes a sampler thread-safe by default, so fused Hogwild workers
// draw from it directly) must be set for exactly the samplers whose
// draws are model- and state-free.
#include <gtest/gtest.h>

#include <vector>

#include "core/nscaching_sampler.h"
#include "kg/kg_index.h"
#include "kg/synthetic.h"
#include "sampler/bernoulli_sampler.h"
#include "sampler/kbgan_sampler.h"
#include "sampler/uniform_sampler.h"

namespace nsc {
namespace {

Dataset SmallDataset() {
  SyntheticKgConfig c;
  c.num_entities = 80;
  c.num_relations = 4;
  c.num_triples = 400;
  c.seed = 11;
  return GenerateSyntheticKg(c);
}

TEST(SampleBatchTest, DefaultBatchMatchesSequentialSample) {
  const Dataset data = SmallDataset();
  const KgIndex index(data.train);
  BernoulliSampler sampler(data.num_entities(), &index);

  const size_t n = 64;
  std::vector<Triple> pos(data.train.begin(), data.train.begin() + n);

  Rng rng_batch(99);
  std::vector<NegativeSample> batch(n);
  sampler.SampleBatch(pos.data(), n, &rng_batch, batch.data());

  Rng rng_seq(99);
  for (size_t i = 0; i < n; ++i) {
    const NegativeSample single = sampler.Sample(pos[i], &rng_seq);
    EXPECT_EQ(batch[i].triple, single.triple) << "pair " << i;
    EXPECT_EQ(batch[i].side, single.side) << "pair " << i;
  }
  // Both styles must leave the generator in the same state.
  EXPECT_EQ(rng_batch.Next(), rng_seq.Next());
}

TEST(SampleBatchTest, KbganDeferredFeedbackUpdatesGeneratorForEveryDraw) {
  // The batched trainer draws a whole mini-batch before delivering the
  // in-order Feedback calls; KBGAN must keep per-draw REINFORCE state
  // for all of them (a single pending slot would drop all but the last).
  const Dataset data = SmallDataset();
  const KgIndex index(data.train);
  KbganConfig config;
  config.candidate_set_size = 8;
  config.generator_dim = 8;
  KbganSampler sampler(data.num_entities(), data.num_relations(), &index,
                       config);

  const size_t n = 8;
  std::vector<Triple> pos(data.train.begin(), data.train.begin() + n);
  Rng rng(5);
  std::vector<NegativeSample> negs(n);
  sampler.SampleBatch(pos.data(), n, &rng, negs.data());

  int updates = 0;
  for (size_t i = 0; i < n; ++i) {
    const std::vector<float> before =
        sampler.generator().entity_table().LogicalCopy();
    // Varying rewards so the advantage is nonzero after the first call
    // (which only initialises the moving-average baseline).
    sampler.Feedback(pos[i], negs[i], static_cast<double>(i) - 3.5);
    if (sampler.generator().entity_table().LogicalCopy() != before) ++updates;
  }
  // Every draw after the baseline-initialising first one must train the
  // generator.
  EXPECT_GE(updates, static_cast<int>(n) - 1);
}

TEST(SampleBatchTest, StatelessTraitCoversExactlyTheFixedSamplers) {
  const Dataset data = SmallDataset();
  const KgIndex index(data.train);
  KgeModel model(data.num_entities(), data.num_relations(), 8,
                 MakeScoringFunction("transe"));
  Rng rng(1);
  model.InitXavier(&rng);

  UniformSampler uniform(data.num_entities());
  BernoulliSampler bernoulli(data.num_entities(), &index);
  NSCachingSampler nscaching(&model, &index, NSCachingConfig{});
  KbganSampler kbgan(data.num_entities(), data.num_relations(), &index,
                     KbganConfig{});

  EXPECT_TRUE(uniform.stateless_sampling());
  EXPECT_TRUE(bernoulli.stateless_sampling());
  // Model-coupled samplers: their draws depend on more than the RNG.
  EXPECT_FALSE(nscaching.stateless_sampling());
  EXPECT_FALSE(kbgan.stateless_sampling());
}

}  // namespace
}  // namespace nsc
