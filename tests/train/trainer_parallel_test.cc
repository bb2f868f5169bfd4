// Engine parity and parallel-execution tests.
//
// Contracts under test:
//   * the pair loop (fused_scoring = false, one thread) trains
//     bit-for-bit identically at every batch size — same losses, same
//     embedding tables — for stateless (Bernoulli), model-coupled
//     (NSCaching) and feedback-driven (KBGAN) samplers; batch_size = 0
//     (the whole epoch as one batch) is the reference;
//   * the fused engine (fused_scoring = true) coincides with the pair
//     loop at batch_size == 1 on the forced-scalar dispatch path
//     (ULP-bounded), and still trains at real batch sizes and under
//     Hogwild threads;
//   * with num_threads > 1 the fused engine keeps training (loss
//     decreases, the observer and the cache stats see every pair) even
//     though float races make runs nondeterministic;
//   * the pair loop refuses more than one thread;
//   * padded and compact table layouts train bit-identically, and
//     Hogwild is deterministic when no two pairs share a row.
#include "train/trainer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/nscaching_sampler.h"
#include "kg/kg_index.h"
#include "kg/synthetic.h"
#include "sampler/bernoulli_sampler.h"
#include "sampler/kbgan_sampler.h"
#include "sampler/uniform_sampler.h"
#include "train/grad_accumulator.h"
#include "util/simd.h"

namespace nsc {
namespace {

Dataset SmallDataset(uint64_t seed = 5) {
  SyntheticKgConfig c;
  c.num_entities = 120;
  c.num_relations = 4;
  c.num_triples = 900;
  c.seed = seed;
  return GenerateSyntheticKg(c);
}

TrainConfig SmallTrainConfig() {
  TrainConfig c;
  c.dim = 12;
  c.learning_rate = 0.05;
  c.epochs = 5;
  c.margin = 2.0;
  c.seed = 3;
  // The bit-for-bit parity contract is the pair loop's; fused cases opt
  // back in explicitly.
  c.fused_scoring = false;
  return c;
}

// Maps a float's bit pattern onto a monotone integer line, so the ULP
// distance between two floats is the difference of their keys.
int64_t UlpKey(float x) {
  int32_t i;
  std::memcpy(&i, &x, sizeof(i));
  return i >= 0 ? static_cast<int64_t>(i)
                : std::numeric_limits<int32_t>::min() - static_cast<int64_t>(i);
}

int64_t UlpDistance(float a, float b) {
  const int64_t d = UlpKey(a) - UlpKey(b);
  return d < 0 ? -d : d;
}

struct RunResult {
  std::vector<double> losses;
  std::vector<float> entities;
  std::vector<float> relations;
};

// Runs `epochs` epochs with a fresh model/sampler.
RunResult RunTraining(const Dataset& data, const KgIndex& index,
                      const std::string& scorer,
                      const std::string& sampler_name, TrainConfig config,
                      int epochs,
                      TableLayout layout = TableLayout::kPadded) {
  KgeModel model(data.num_entities(), data.num_relations(), config.dim,
                 MakeScoringFunction(scorer), layout);
  Rng rng(1);
  model.InitXavier(&rng);
  std::unique_ptr<NegativeSampler> sampler;
  if (sampler_name == "bernoulli") {
    sampler =
        std::make_unique<BernoulliSampler>(data.num_entities(), &index);
  } else if (sampler_name == "uniform") {
    sampler = std::make_unique<UniformSampler>(data.num_entities());
  } else if (sampler_name == "kbgan") {
    KbganConfig kbgan_config;
    kbgan_config.candidate_set_size = 8;
    kbgan_config.generator_dim = config.dim;
    sampler = std::make_unique<KbganSampler>(
        data.num_entities(), data.num_relations(), &index, kbgan_config);
  } else {
    NSCachingConfig nsc_config;
    nsc_config.n1 = 10;
    nsc_config.n2 = 10;
    sampler = std::make_unique<NSCachingSampler>(&model, &index, nsc_config);
  }
  Trainer trainer(&model, &data.train, sampler.get(), config);
  RunResult result;
  for (int e = 0; e < epochs; ++e) {
    result.losses.push_back(trainer.RunEpoch().mean_loss);
  }
  result.entities = model.entity_table().LogicalCopy();
  result.relations = model.relation_table().LogicalCopy();
  return result;
}

// The whole epoch as one batch (batch_size = 0): one engine step per
// epoch, the reference every batched pair-loop run must equal.
TrainConfig WholeEpochBatch(TrainConfig config) {
  config.batch_size = 0;
  return config;
}

TEST(TrainerParityTest, BatchedOneThreadMatchesSerialForStatelessSampler) {
  const Dataset data = SmallDataset();
  const KgIndex index(data.train);
  TrainConfig config = SmallTrainConfig();
  config.batch_size = 32;
  config.num_threads = 1;
  const RunResult serial = RunTraining(data, index, "transe", "bernoulli",
                                       WholeEpochBatch(config), 3);
  const RunResult batched =
      RunTraining(data, index, "transe", "bernoulli", config, 3);
  EXPECT_EQ(serial.losses, batched.losses);
  EXPECT_EQ(serial.entities, batched.entities);
  EXPECT_EQ(serial.relations, batched.relations);
}

TEST(TrainerParityTest, BatchedOneThreadMatchesSerialForNSCaching) {
  // NSCaching samples against the live model, so the pair loop must keep
  // the sample/update interleaving across batch boundaries; this pins
  // that behaviour bit-for-bit.
  const Dataset data = SmallDataset();
  const KgIndex index(data.train);
  TrainConfig config = SmallTrainConfig();
  config.batch_size = 64;
  config.num_threads = 1;
  const RunResult serial = RunTraining(data, index, "transe", "nscaching",
                                       WholeEpochBatch(config), 2);
  const RunResult batched =
      RunTraining(data, index, "transe", "nscaching", config, 2);
  EXPECT_EQ(serial.losses, batched.losses);
  EXPECT_EQ(serial.entities, batched.entities);
  EXPECT_EQ(serial.relations, batched.relations);
}

TEST(TrainerParityTest, BatchedOneThreadMatchesSerialForKbgan) {
  // KBGAN's Sample/Feedback state is a FIFO queue; the pair loop
  // interleaves per pair (queue depth 1) at every batch size, including
  // the generator's REINFORCE updates.
  const Dataset data = SmallDataset();
  const KgIndex index(data.train);
  TrainConfig config = SmallTrainConfig();
  config.batch_size = 64;
  config.num_threads = 1;
  const RunResult serial = RunTraining(data, index, "transe", "kbgan",
                                       WholeEpochBatch(config), 2);
  const RunResult batched =
      RunTraining(data, index, "transe", "kbgan", config, 2);
  EXPECT_EQ(serial.losses, batched.losses);
  EXPECT_EQ(serial.entities, batched.entities);
  EXPECT_EQ(serial.relations, batched.relations);
}

TEST(TrainerParityTest, BatchSizeDoesNotChangeOneThreadResults) {
  const Dataset data = SmallDataset();
  const KgIndex index(data.train);
  TrainConfig small = SmallTrainConfig();
  small.batch_size = 1;
  TrainConfig large = SmallTrainConfig();
  large.batch_size = 512;
  const RunResult a = RunTraining(data, index, "complex", "bernoulli", small, 2);
  const RunResult b = RunTraining(data, index, "complex", "bernoulli", large, 2);
  EXPECT_EQ(a.losses, b.losses);
  EXPECT_EQ(a.entities, b.entities);
}

TEST(TrainerParityTest, SemanticFamilyParityWithL2) {
  // Exercises the L2-penalty and logistic-loss paths through the slot map.
  const Dataset data = SmallDataset();
  const KgIndex index(data.train);
  TrainConfig config = SmallTrainConfig();
  config.batch_size = 32;
  config.l2_lambda = 0.01;
  config.track_grad_norm = true;
  const RunResult serial = RunTraining(data, index, "complex", "bernoulli",
                                       WholeEpochBatch(config), 2);
  const RunResult batched =
      RunTraining(data, index, "complex", "bernoulli", config, 2);
  EXPECT_EQ(serial.losses, batched.losses);
  EXPECT_EQ(serial.entities, batched.entities);
}

TEST(TrainerDeathTest, PairLoopRejectsThreads) {
  const Dataset data = SmallDataset();
  KgeModel model(data.num_entities(), data.num_relations(), 12,
                 MakeScoringFunction("transe"));
  UniformSampler sampler(data.num_entities());
  TrainConfig config = SmallTrainConfig();
  config.fused_scoring = false;
  config.num_threads = 3;
  EXPECT_DEATH({ Trainer trainer(&model, &data.train, &sampler, config); },
               "pair loop");
}

// ---- Fused-engine tests --------------------------------------------------

TEST(TrainerFusedTest, FusedMatchesPairPathAtBatchOneUlpBounded) {
  // At batch_size == 1 the fused step and the pair path perform the same
  // per-pair arithmetic — the only difference is batched vs single-triple
  // kernel entry points, which on the forced-scalar dispatch path agree
  // bit-for-bit (simd_parity_test's contract). Pin fused-vs-pair parity
  // ULP-bounded there, for both loss families (margin, and logistic with
  // the L2 penalty through the relation accumulator).
  simd::ScopedForcePath force(simd::Path::kScalar);
  const Dataset data = SmallDataset();
  const KgIndex index(data.train);
  for (const char* scorer : {"transe", "complex"}) {
    SCOPED_TRACE(scorer);
    TrainConfig config = SmallTrainConfig();
    config.batch_size = 1;
    config.num_threads = 1;
    if (std::string(scorer) == "complex") config.l2_lambda = 0.01;
    TrainConfig fused_config = config;
    fused_config.fused_scoring = true;
    const RunResult pair =
        RunTraining(data, index, scorer, "bernoulli", config, 3);
    const RunResult fused =
        RunTraining(data, index, scorer, "bernoulli", fused_config, 3);
    ASSERT_EQ(pair.losses.size(), fused.losses.size());
    for (size_t e = 0; e < pair.losses.size(); ++e) {
      EXPECT_NEAR(fused.losses[e], pair.losses[e],
                  1e-12 * (1.0 + std::abs(pair.losses[e])))
          << "epoch " << e;
    }
    ASSERT_EQ(pair.entities.size(), fused.entities.size());
    constexpr int64_t kMaxUlps = 4;
    for (size_t i = 0; i < pair.entities.size(); ++i) {
      ASSERT_LE(UlpDistance(pair.entities[i], fused.entities[i]), kMaxUlps)
          << "entity float " << i;
    }
    ASSERT_EQ(pair.relations.size(), fused.relations.size());
    for (size_t i = 0; i < pair.relations.size(); ++i) {
      ASSERT_LE(UlpDistance(pair.relations[i], fused.relations[i]), kMaxUlps)
          << "relation float " << i;
    }
  }
}

TEST(TrainerFusedTest, FusedTrainsToLowerLossAtRealBatchSizes) {
  const Dataset data = SmallDataset();
  const KgIndex index(data.train);
  for (const std::string sampler : {"bernoulli", "nscaching"}) {
    SCOPED_TRACE(sampler);
    TrainConfig config = SmallTrainConfig();
    config.batch_size = 256;
    config.num_threads = 1;
    config.fused_scoring = true;
    const RunResult fused =
        RunTraining(data, index, "transe", sampler, config, 5);
    EXPECT_LT(fused.losses.back(), fused.losses.front());
  }
}

TEST(TrainerFusedTest, FusedTracksPairPathConvergence) {
  // Not a bit-wise contract (fused scores are up to fused_block pairs
  // stale), but the trajectories must stay close: same data, same seed,
  // final mean loss within a small absolute + relative band.
  const Dataset data = SmallDataset();
  const KgIndex index(data.train);
  TrainConfig config = SmallTrainConfig();
  config.batch_size = 256;
  config.num_threads = 1;
  TrainConfig fused_config = config;
  fused_config.fused_scoring = true;
  const RunResult pair = RunTraining(data, index, "transe", "bernoulli",
                                     config, 5);
  const RunResult fused = RunTraining(data, index, "transe", "bernoulli",
                                      fused_config, 5);
  EXPECT_NEAR(fused.losses.back(), pair.losses.back(),
              0.05 + 0.2 * pair.losses.back());
  EXPECT_LT(fused.losses.back(), 0.5 * fused.losses.front());
}

TEST(TrainerFusedTest, FusedHogwildTrainsWithThreadSafeSamplers) {
  const Dataset data = SmallDataset();
  const KgIndex index(data.train);
  for (const std::string sampler : {"bernoulli", "nscaching"}) {
    SCOPED_TRACE(sampler);
    TrainConfig config = SmallTrainConfig();
    config.batch_size = 128;
    config.num_threads = 4;
    config.fused_scoring = true;
    const RunResult fused =
        RunTraining(data, index, "transe", sampler, config, 6);
    EXPECT_LT(fused.losses.back(), fused.losses.front());
  }
}

TEST(TrainerFusedTest, FusedSerialSamplingFallbackTrains) {
  // The fused Hogwild engine's serial pre-sampling branch: KBGAN is
  // thread-hostile, so its generator state forces the pre-pass.
  const Dataset data = SmallDataset();
  const KgIndex index(data.train);
  TrainConfig config = SmallTrainConfig();
  config.batch_size = 64;
  config.num_threads = 3;
  config.fused_scoring = true;
  const RunResult kbgan =
      RunTraining(data, index, "transe", "kbgan", config, 6);
  EXPECT_LT(kbgan.losses.back(), kbgan.losses.front());
}

TEST(TrainerFusedTest, FusedObserverAndAccountingSeeEveryPair) {
  const Dataset data = SmallDataset();
  const KgIndex index(data.train);
  KgeModel model(data.num_entities(), data.num_relations(), 12,
                 MakeScoringFunction("transe"));
  Rng rng(1);
  model.InitXavier(&rng);
  NSCachingConfig nsc_config;
  nsc_config.n1 = 10;
  nsc_config.n2 = 10;
  NSCachingSampler sampler(&model, &index, nsc_config);
  TrainConfig config = SmallTrainConfig();
  config.batch_size = 64;
  config.num_threads = 3;
  config.fused_scoring = true;
  Trainer trainer(&model, &data.train, &sampler, config);
  size_t observed = 0;
  trainer.set_negative_observer(
      [&](const Triple&, const NegativeSample&, double) { ++observed; });
  trainer.RunEpoch();
  const int64_t n = static_cast<int64_t>(data.train.size());
  EXPECT_EQ(observed, data.train.size());
  // Two cache draws and two refreshes per positive, sampled inside the
  // fused workers.
  EXPECT_EQ(sampler.stats().selections, 2 * n);
  EXPECT_EQ(sampler.stats().updates, 2 * n);
}

TEST(TrainerParallelTest, HogwildTrainsToLowerLoss) {
  const Dataset data = SmallDataset();
  const KgIndex index(data.train);
  KgeModel model(data.num_entities(), data.num_relations(), 12,
                 MakeScoringFunction("transe"));
  Rng rng(1);
  model.InitXavier(&rng);
  BernoulliSampler sampler(data.num_entities(), &index);
  TrainConfig config = SmallTrainConfig();
  config.batch_size = 64;
  config.num_threads = 4;
  config.fused_scoring = true;
  Trainer trainer(&model, &data.train, &sampler, config);
  EXPECT_EQ(trainer.num_threads(), 4);
  const EpochStats first = trainer.RunEpoch();
  EpochStats last = first;
  for (int e = 1; e < 8; ++e) last = trainer.RunEpoch();
  EXPECT_LT(last.mean_loss, first.mean_loss);
  EXPECT_EQ(trainer.epoch(), 8);
}

TEST(TrainerParallelTest, HogwildNSCachingSamplesInsideWorkers) {
  // With thread_safe_sampling(), NSCaching's select/refresh runs inside
  // the Hogwild workers. The atomic stats pin the accounting: exactly two
  // cache draws and two refreshes per positive, with nothing lost to
  // concurrent increments.
  const Dataset data = SmallDataset();
  const KgIndex index(data.train);
  KgeModel model(data.num_entities(), data.num_relations(), 12,
                 MakeScoringFunction("transe"));
  Rng rng(1);
  model.InitXavier(&rng);
  NSCachingConfig nsc_config;
  nsc_config.n1 = 10;
  nsc_config.n2 = 10;
  NSCachingSampler sampler(&model, &index, nsc_config);
  ASSERT_TRUE(sampler.thread_safe_sampling());
  ASSERT_FALSE(sampler.stateless_sampling());
  TrainConfig config = SmallTrainConfig();
  config.batch_size = 64;
  config.num_threads = 4;
  config.fused_scoring = true;
  Trainer trainer(&model, &data.train, &sampler, config);
  trainer.RunEpoch();
  const int64_t n = static_cast<int64_t>(data.train.size());
  EXPECT_EQ(sampler.stats().selections, 2 * n);
  EXPECT_EQ(sampler.stats().updates, 2 * n);
}

TEST(TrainerParallelTest, HogwildNSCachingRefreshKeepsRowsFinite) {
  // Hogwild workers run the fused step with Adagrad moments while the
  // thread-safe NSCaching sampler scores the same table from inside
  // every worker. The embedding-row races are the Hogwild design
  // (tsan.supp); the moments and the cache must add none, and every
  // parameter must stay finite.
  SyntheticKgConfig kg;
  kg.num_entities = 200;
  kg.num_relations = 6;
  kg.num_triples = 2400;
  kg.seed = 11;
  const Dataset data = GenerateSyntheticKg(kg);
  const KgIndex index(data.train);
  KgeModel model(data.num_entities(), data.num_relations(), 12,
                 MakeScoringFunction("transe"));
  Rng rng(3);
  model.InitXavier(&rng);
  NSCachingConfig nsc_config;
  nsc_config.n1 = 8;
  nsc_config.n2 = 8;
  NSCachingSampler sampler(&model, &index, nsc_config);
  ASSERT_TRUE(sampler.thread_safe_sampling());
  TrainConfig config;
  config.dim = 12;
  config.learning_rate = 0.05;
  config.optimizer = "adagrad";
  config.batch_size = 64;
  config.num_threads = 4;
  config.seed = 17;
  Trainer trainer(&model, &data.train, &sampler, config);
  for (int epoch = 0; epoch < 2; ++epoch) {
    EXPECT_TRUE(std::isfinite(trainer.RunEpoch().mean_loss))
        << "epoch " << epoch;
  }
  for (const float v : model.entity_table().LogicalCopy()) {
    ASSERT_TRUE(std::isfinite(v));
  }
  EXPECT_GT(sampler.stats().selections, 0);
  EXPECT_GT(sampler.stats().updates, 0);
}

TEST(TrainerParityTest, TrainingIsLayoutInvariant) {
  // The fused serial engine and NSCaching's cache refresh read rows at
  // the table's stride; padding must not change one bit of the
  // trajectory, on either dispatch path.
  const Dataset data = SmallDataset();
  const KgIndex index(data.train);
  TrainConfig config = SmallTrainConfig();
  config.fused_scoring = true;
  config.batch_size = 64;
  config.num_threads = 1;
  for (const std::string sampler : {"bernoulli", "nscaching"}) {
    for (const bool forced_scalar : {false, true}) {
      simd::ScopedForcePath force(forced_scalar
                                      ? simd::Path::kScalar
                                      : simd::BestAvailablePath());
      const RunResult padded = RunTraining(data, index, "transe", sampler,
                                           config, 2, TableLayout::kPadded);
      const RunResult compact = RunTraining(data, index, "transe", sampler,
                                            config, 2, TableLayout::kCompact);
      EXPECT_EQ(compact.losses, padded.losses)
          << sampler << " scalar=" << forced_scalar;
      EXPECT_EQ(compact.entities, padded.entities)
          << sampler << " scalar=" << forced_scalar;
      EXPECT_EQ(compact.relations, padded.relations)
          << sampler << " scalar=" << forced_scalar;
    }
  }
}

// Sampler whose negatives live in the positive triple's private row
// group: triple i is (3i, i, 3i+1) and its negative tail is 3i+2, so
// every (positive, negative) pair touches rows no other pair touches.
// That makes Hogwild execution order-independent — the one regime where
// multi-threaded training can be compared bit for bit.
class PrivateRowsSampler : public NegativeSampler {
 public:
  std::string name() const override { return "private_rows"; }
  NegativeSample Sample(const Triple& pos, Rng* /*rng*/) override {
    NegativeSample out;
    out.triple = {pos.h, pos.r, pos.h + 2};
    out.side = CorruptionSide::kTail;
    return out;
  }
  bool stateless_sampling() const override { return true; }
};

TEST(TrainerParallelTest, HogwildIsDeterministicOnDisjointRows) {
  // With disjoint row groups per pair, Hogwild (3 workers) has no write
  // conflicts: every row sees the same update sequence however the
  // workers interleave, in either table layout.
  const int32_t kPairs = 48;
  TripleStore train(3 * kPairs, kPairs);
  for (int32_t i = 0; i < kPairs; ++i) {
    train.Add({3 * i, i, 3 * i + 1});
  }
  TrainConfig config;
  config.dim = 12;
  config.learning_rate = 0.05;
  config.optimizer = "adagrad";
  config.batch_size = 16;
  config.num_threads = 3;
  config.seed = 9;
  auto run = [&](TableLayout layout) {
    KgeModel model(train.num_entities(), train.num_relations(), config.dim,
                   MakeScoringFunction("transe"), layout);
    Rng rng(1);
    model.InitXavier(&rng);
    PrivateRowsSampler sampler;
    Trainer trainer(&model, &train, &sampler, config);
    RunResult out;
    for (int e = 0; e < 2; ++e) {
      out.losses.push_back(trainer.RunEpoch().mean_loss);
    }
    out.entities = model.entity_table().LogicalCopy();
    out.relations = model.relation_table().LogicalCopy();
    return out;
  };
  const RunResult reference = run(TableLayout::kPadded);
  for (const TableLayout layout :
       {TableLayout::kPadded, TableLayout::kCompact}) {
    const RunResult got = run(layout);
    EXPECT_EQ(got.losses, reference.losses);
    EXPECT_EQ(got.entities, reference.entities);
    EXPECT_EQ(got.relations, reference.relations);
  }
}

TEST(TrainerParallelTest, HardwareDefaultThreadResolution) {
  const Dataset data = SmallDataset();
  KgeModel model(data.num_entities(), data.num_relations(), 12,
                 MakeScoringFunction("transe"));
  Rng rng(1);
  model.InitXavier(&rng);
  UniformSampler sampler(data.num_entities());
  TrainConfig config = SmallTrainConfig();
  config.fused_scoring = true;
  config.num_threads = 0;  // <= 0 resolves to the hardware default.
  Trainer trainer(&model, &data.train, &sampler, config);
  EXPECT_GE(trainer.num_threads(), 1);
}

// ---- GradAccumulator unit tests ------------------------------------------

TEST(GradAccumulatorTest, AccumulatesAndClears) {
  GradAccumulator acc;
  acc.Configure(3);
  float* g7 = acc.GradFor(7);
  g7[0] = 1.0f;
  // Repeated lookup returns the same slot without growing.
  EXPECT_EQ(acc.GradFor(7), g7);
  EXPECT_EQ(acc.size(), 1u);
  acc.GradFor(9)[1] = 2.0f;
  EXPECT_EQ(acc.size(), 2u);
  EXPECT_EQ(acc.id(0), 7);
  EXPECT_EQ(acc.id(1), 9);
  EXPECT_FLOAT_EQ(acc.grad(0)[0], 1.0f);
  EXPECT_FLOAT_EQ(acc.grad(1)[1], 2.0f);

  acc.Clear();
  EXPECT_EQ(acc.size(), 0u);
  // Reused slots come back zeroed.
  const float* fresh = acc.GradFor(9);
  for (int k = 0; k < 3; ++k) EXPECT_FLOAT_EQ(fresh[k], 0.0f);
}

TEST(GradAccumulatorTest, ManyEntitiesStayDistinct) {
  GradAccumulator acc;
  acc.Configure(2);
  for (EntityId e = 0; e < 500; ++e) acc.GradFor(e);
  // Writing through freshly resolved pointers (resolve-then-write, as the
  // trainer does) keeps every slot addressable.
  for (EntityId e = 0; e < 500; ++e) acc.GradFor(e)[0] = float(e);
  EXPECT_EQ(acc.size(), 500u);
  for (size_t s = 0; s < acc.size(); ++s) {
    EXPECT_FLOAT_EQ(acc.grad(s)[0], float(acc.id(s)));
  }
}

TEST(GradAccumulatorTest, ReconfigureToNarrowerWidth) {
  GradAccumulator acc;
  acc.Configure(8);
  for (EntityId e = 0; e < 10; ++e) acc.GradFor(e)[7] = 1.0f;
  acc.Configure(2);
  for (EntityId e = 0; e < 300; ++e) {
    const float* g = acc.GradFor(e);
    EXPECT_FLOAT_EQ(g[0], 0.0f);
    EXPECT_FLOAT_EQ(g[1], 0.0f);
  }
  EXPECT_EQ(acc.size(), 300u);
}

TEST(GradAccumulatorTest, ReconfigureToWiderWidth) {
  // Widening must not leak stale floats from the previous layout into
  // the tail of reused rows.
  GradAccumulator acc;
  acc.Configure(2);
  for (EntityId e = 0; e < 3; ++e) {
    float* g = acc.GradFor(e);
    g[0] = 5.0f;
    g[1] = 6.0f;
  }
  acc.Configure(8);
  for (EntityId e = 0; e < 3; ++e) {
    const float* g = acc.GradFor(e);
    for (int k = 0; k < 8; ++k) EXPECT_FLOAT_EQ(g[k], 0.0f) << k;
  }
}

}  // namespace
}  // namespace nsc
