// Bit-for-bit parity of the production NSCaching refresh and select paths
// with the reference oracle in refresh_oracle.h.
//
// Production and oracle run side by side on identically seeded Rngs over
// the same model. After every refresh (select) the entries (selected ids),
// every CacheRefreshResult field and the next raw output of both Rngs must
// be equal — so the two consumed exactly the same draws. The model is
// perturbed every few refreshes so candidate scores keep moving, as they
// do in training. The stale-stamp cases check that the refresh's one
// thread-local stamp array (known-true set, then old entry) carries
// nothing from one refresh into the next. Also pinned here: util
// GumbelTopK against the partial_sort oracle, Rng::UniformInt streams
// against the per-call threshold oracle, and GenerateSyntheticKg output
// against fingerprints recorded with the oracle's GumbelTopK and
// UniformInt.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/cache_select.h"
#include "core/cache_update.h"
#include "embedding/scoring_function.h"
#include "kg/kg_index.h"
#include "kg/synthetic.h"
#include "util/math.h"
#include "refresh_oracle.h"

namespace nsc {
namespace {

constexpr int32_t kEntities = 120;
constexpr int32_t kRelations = 3;

// The dense keys: (r=1, t=7) has every head but a handful as known-true,
// so the filter's redraw budget runs out (true admissions > 0), and
// (h=5, r=2) has a long tail list. Relation 0 is sparse (short lists).
constexpr RelationId kDenseRelation = 1;
constexpr EntityId kDenseTail = 7;
constexpr EntityId kLongListHead = 5;

TripleStore MakeStore() {
  TripleStore store(kEntities, kRelations);
  Rng rng(2024);
  for (int i = 0; i < 300; ++i) {
    const EntityId h = static_cast<EntityId>(rng.UniformInt(kEntities));
    const EntityId t = static_cast<EntityId>(rng.UniformInt(kEntities));
    if (h != t) store.Add({h, 0, t});
  }
  for (EntityId h = 0; h < kEntities; ++h) {
    if (h % 40 != 3) store.Add({h, kDenseRelation, kDenseTail});
  }
  for (EntityId t = 10; t < 70; ++t) store.Add({kLongListHead, 2, t});
  for (int i = 0; i < 100; ++i) {
    const EntityId h = static_cast<EntityId>(rng.UniformInt(kEntities));
    const EntityId t = static_cast<EntityId>(rng.UniformInt(kEntities));
    store.Add({h, 2, t});
  }
  return store;
}

KgeModel MakeModel(int32_t num_entities = kEntities,
                   int32_t num_relations = kRelations) {
  KgeModel model(num_entities, num_relations, 12,
                 MakeScoringFunction("transe"));
  Rng rng(77);
  model.InitXavier(&rng);
  return model;
}

// Nudges a few entity rows, standing in for training steps between
// refreshes.
void Perturb(KgeModel* model, Rng* rng) {
  const uint64_t num_entities = static_cast<uint64_t>(model->num_entities());
  for (int i = 0; i < 4; ++i) {
    float* row = model->entity_table().Row(
        static_cast<int32_t>(rng->UniformInt(num_entities)));
    for (int d = 0; d < model->dim(); ++d) {
      row[d] += static_cast<float>(rng->Uniform(-0.05, 0.05));
    }
  }
}

// One cache key: side, the fixed entity and the relation.
struct Key {
  CorruptionSide side;
  EntityId fixed;
  RelationId r;
};

std::vector<Key> MakeKeys(const TripleStore& store) {
  std::vector<Key> keys = {
      {CorruptionSide::kHead, kDenseTail, kDenseRelation},
      {CorruptionSide::kTail, kLongListHead, 2},
  };
  for (size_t i = 0; i < store.size(); i += 23) {
    const Triple& x = store[i];
    keys.push_back({CorruptionSide::kHead, x.t, x.r});
    keys.push_back({CorruptionSide::kTail, x.h, x.r});
  }
  return keys;
}

std::vector<EntityId> InitialEntry(int n1, Rng* rng,
                                   int32_t num_entities = kEntities) {
  std::vector<EntityId> entry(n1);
  for (EntityId& e : entry) {
    e = static_cast<EntityId>(
        rng->UniformInt(static_cast<uint64_t>(num_entities)));
  }
  return entry;
}

void ExpectSameResult(const CacheRefreshResult& got,
                      const CacheRefreshResult& want, int step) {
  ASSERT_EQ(got.changed, want.changed) << "refresh " << step;
  ASSERT_EQ(got.true_admissions, want.true_admissions) << "refresh " << step;
  ASSERT_EQ(got.topk_tiles, want.topk_tiles) << "refresh " << step;
  ASSERT_EQ(got.topk_pruned_tiles, want.topk_pruned_tiles)
      << "refresh " << step;
}

// A production updater and the oracle over the same model, each with its
// own identically seeded Rng and its own copy of every entry.
struct Lockstep {
  Lockstep(const KgeModel* model, CacheUpdateStrategy strategy, int n2,
           const KgIndex* filter_index, uint64_t seed)
      : production(model, strategy, n2, filter_index),
        reference(model, strategy, n2, filter_index),
        rng(seed),
        oracle_rng(seed) {}

  // Refreshes `key` on both sides: the entries, every result field and
  // the next raw output of both Rngs must be equal afterwards. Returns the
  // production result through `got`.
  void Refresh(const Key& key, std::vector<EntityId>* entry,
               std::vector<EntityId>* oracle_entry, int step,
               CacheRefreshResult* got) {
    CacheRefreshResult want;
    if (key.side == CorruptionSide::kHead) {
      *got = production.UpdateHeadEntry(entry, key.r, key.fixed, &rng);
      want = reference.UpdateHeadEntry(oracle_entry, key.r, key.fixed,
                                       &oracle_rng);
    } else {
      *got = production.UpdateTailEntry(entry, key.fixed, key.r, &rng);
      want = reference.UpdateTailEntry(oracle_entry, key.fixed, key.r,
                                       &oracle_rng);
    }
    ASSERT_EQ(*entry, *oracle_entry) << "refresh " << step;
    ExpectSameResult(*got, want, step);
    ASSERT_EQ(rng.Next(), oracle_rng.Next()) << "refresh " << step;
  }

  CacheUpdater production;
  oracle::CacheUpdater reference;
  Rng rng, oracle_rng;
};

using RefreshCase = std::tuple<CacheUpdateStrategy, bool, int, int>;

class RefreshParityTest : public ::testing::TestWithParam<RefreshCase> {};

TEST_P(RefreshParityTest, MatchesOracleAfterEveryRefresh) {
  const auto [strategy, filter, n1, n2] = GetParam();
  const TripleStore store = MakeStore();
  const KgIndex index(store);
  KgeModel model = MakeModel();
  Lockstep both(&model, strategy, n2, filter ? &index : nullptr, 31);

  const std::vector<Key> keys = MakeKeys(store);
  Rng setup(5);
  std::vector<std::vector<EntityId>> entries;
  for (size_t k = 0; k < keys.size(); ++k) {
    entries.push_back(InitialEntry(n1, &setup));
  }
  std::vector<std::vector<EntityId>> oracle_entries = entries;

  Rng keys_rng(9), perturb_rng(13);
  int64_t true_admissions = 0;
  int64_t changed = 0;
  constexpr int kRefreshes = 2000;
  for (int step = 0; step < kRefreshes; ++step) {
    if (step % 16 == 0) Perturb(&model, &perturb_rng);
    // Every fourth refresh hits the dense head key.
    const size_t k = step % 4 == 0 ? 0 : keys_rng.UniformInt(keys.size());
    CacheRefreshResult got;
    ASSERT_NO_FATAL_FAILURE(
        both.Refresh(keys[k], &entries[k], &oracle_entries[k], step, &got));
    true_admissions += got.true_admissions;
    changed += got.changed;
  }
  EXPECT_GT(changed, 0);
  if (filter) {
    EXPECT_GT(true_admissions, 0) << "the dense key never exhausted the "
                                     "redraw budget";
  } else {
    EXPECT_EQ(true_admissions, 0);
  }
}

std::string RefreshCaseName(const ::testing::TestParamInfo<RefreshCase>& info) {
  const auto [strategy, filter, n1, n2] = info.param;
  return CacheUpdateStrategyName(strategy) + (filter ? "_filter" : "_nofilter") +
         "_n1_" + std::to_string(n1) + "_n2_" + std::to_string(n2);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, RefreshParityTest,
    ::testing::Combine(::testing::Values(CacheUpdateStrategy::kImportanceSampling,
                                         CacheUpdateStrategy::kTop,
                                         CacheUpdateStrategy::kUniform),
                       ::testing::Bool(),
                       // (N1, N2): N2 > N1 and N2 < N1.
                       ::testing::Values(10, 40), ::testing::Values(35)),
    RefreshCaseName);

// Stale stamps. The refresh stamps the key's known-true list and then the
// old entry into one thread-local array, so nothing stamped for one
// refresh may change the next. Each case runs on a new thread, whose
// array starts empty.
void OnFreshThread(const std::function<void()>& body) {
  std::thread(body).join();
}

constexpr int32_t kHubEntities = 600;
constexpr int kHubN1 = 30;
constexpr int kHubN2 = 40;

// Two relations over kHubEntities. (r=0, t=0) is a hub head key and
// (h=1, r=1) a hub tail key: every entity but each 16th is known-true for
// them, so a hub refresh stamps most of |E| and its redraw budget often
// runs out. The tail keys (e, r=0) and head keys (r=1, e) have short
// lists that overlap the hubs', so a hub stamp leaking into their
// refresh would reject their candidates.
TripleStore MakeHubStore() {
  TripleStore store(kHubEntities, 2);
  for (EntityId e = 0; e < kHubEntities; ++e) {
    if (e % 16 != 5) {
      store.Add({e, 0, 0});
      store.Add({1, 1, e});
    }
  }
  Rng rng(4242);
  for (int i = 0; i < 400; ++i) {
    const EntityId h = static_cast<EntityId>(rng.UniformInt(kHubEntities));
    const EntityId t = static_cast<EntityId>(rng.UniformInt(kHubEntities));
    store.Add({h, static_cast<RelationId>(i % 2), t});
  }
  return store;
}

// The two hub keys first, then 24 sparse tail keys and 24 sparse head
// keys.
std::vector<Key> MakeHubKeys() {
  std::vector<Key> keys = {{CorruptionSide::kHead, 0, 0},
                           {CorruptionSide::kTail, 1, 1}};
  for (EntityId e = 2; e < 26; ++e) {
    keys.push_back({CorruptionSide::kTail, e, 0});
  }
  for (EntityId e = 2; e < 26; ++e) {
    keys.push_back({CorruptionSide::kHead, e, 1});
  }
  return keys;
}

class StaleStampParityTest
    : public ::testing::TestWithParam<CacheUpdateStrategy> {};

TEST_P(StaleStampParityTest, HubKeysInterleavedWithSparseHeadAndTailKeys) {
  const CacheUpdateStrategy strategy = GetParam();
  OnFreshThread([strategy] {
    const TripleStore store = MakeHubStore();
    const KgIndex index(store);
    ASSERT_GT(index.HeadsOf(0, 0).size(), kHubEntities * 9 / 10);
    ASSERT_GT(index.TailsOf(1, 1).size(), kHubEntities * 9 / 10);
    KgeModel model = MakeModel(kHubEntities, 2);
    Lockstep both(&model, strategy, kHubN2, &index, 61);
    const std::vector<Key> keys = MakeHubKeys();
    Rng setup(7), keys_rng(21), perturb_rng(23);
    std::vector<std::vector<EntityId>> entries;
    for (size_t k = 0; k < keys.size(); ++k) {
      entries.push_back(InitialEntry(kHubN1, &setup, kHubEntities));
    }
    std::vector<std::vector<EntityId>> oracle_entries = entries;
    int64_t hub_admissions = 0, sparse_admissions = 0;
    for (int step = 0; step < 1200; ++step) {
      if (step % 16 == 0) Perturb(&model, &perturb_rng);
      // Hub head, sparse tail, hub tail, sparse head, ...: every sparse
      // refresh directly follows a hub refresh of the other side.
      const size_t sparse = 2 + keys_rng.UniformInt(24);
      size_t k = 0;
      switch (step % 4) {
        case 0: k = 0; break;
        case 1: k = sparse; break;
        case 2: k = 1; break;
        case 3: k = sparse + 24; break;
      }
      CacheRefreshResult got;
      ASSERT_NO_FATAL_FAILURE(
          both.Refresh(keys[k], &entries[k], &oracle_entries[k], step, &got));
      (k < 2 ? hub_admissions : sparse_admissions) += got.true_admissions;
    }
    EXPECT_GT(hub_admissions, 0) << "the hub keys never exhausted the "
                                    "redraw budget";
    EXPECT_EQ(sparse_admissions, 0);
  });
}

TEST_P(StaleStampParityTest, ArrayGrowsBetweenModelsOnOneThread) {
  const CacheUpdateStrategy strategy = GetParam();
  OnFreshThread([strategy] {
    // Small: the kEntities graph of the main parity test. Large: the hub
    // graph, whose hub keys stamp ids far beyond kEntities.
    const TripleStore small_store = MakeStore();
    const KgIndex small_index(small_store);
    KgeModel small_model = MakeModel();
    const TripleStore large_store = MakeHubStore();
    const KgIndex large_index(large_store);
    KgeModel large_model = MakeModel(kHubEntities, 2);
    Lockstep small(&small_model, strategy, 35, &small_index, 71);
    Lockstep large(&large_model, strategy, kHubN2, &large_index, 73);

    const std::vector<Key> small_keys = MakeKeys(small_store);
    const std::vector<Key> large_keys = MakeHubKeys();
    Rng setup(8), keys_rng(25), perturb_rng(27);
    std::vector<std::vector<EntityId>> small_entries, large_entries;
    for (size_t k = 0; k < small_keys.size(); ++k) {
      small_entries.push_back(InitialEntry(20, &setup));
    }
    for (size_t k = 0; k < large_keys.size(); ++k) {
      large_entries.push_back(InitialEntry(kHubN1, &setup, kHubEntities));
    }
    std::vector<std::vector<EntityId>> small_oracle = small_entries;
    std::vector<std::vector<EntityId>> large_oracle = large_entries;
    for (int step = 0; step < 1200; ++step) {
      if (step % 16 == 0) {
        Perturb(&small_model, &perturb_rng);
        Perturb(&large_model, &perturb_rng);
      }
      // The first 100 refreshes use only the small model; from then on
      // the models alternate, so the array grows at step 101 and the
      // small model's refreshes run on the larger array after that.
      CacheRefreshResult got;
      if (step <= 100 || step % 2 == 0) {
        const size_t k =
            step % 3 == 0 ? 0 : keys_rng.UniformInt(small_keys.size());
        ASSERT_NO_FATAL_FAILURE(small.Refresh(small_keys[k], &small_entries[k],
                                              &small_oracle[k], step, &got));
      } else {
        const size_t k = step % 3 == 0
                             ? (step / 3) % 2
                             : keys_rng.UniformInt(large_keys.size());
        ASSERT_NO_FATAL_FAILURE(large.Refresh(large_keys[k], &large_entries[k],
                                              &large_oracle[k], step, &got));
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StaleStampParityTest,
    ::testing::Values(CacheUpdateStrategy::kImportanceSampling,
                      CacheUpdateStrategy::kTop, CacheUpdateStrategy::kUniform),
    [](const ::testing::TestParamInfo<CacheUpdateStrategy>& info) {
      return CacheUpdateStrategyName(info.param);
    });

class SelectParityTest
    : public ::testing::TestWithParam<CacheSelectStrategy> {};

TEST_P(SelectParityTest, MatchesOracleAfterEverySelect) {
  const CacheSelectStrategy strategy = GetParam();
  KgeModel model = MakeModel();
  const CacheSelector production(&model, strategy);
  const oracle::CacheSelector reference(&model, strategy);
  Rng rng(41), oracle_rng(41), setup(3), perturb_rng(17);
  for (int step = 0; step < 3000; ++step) {
    if (step % 16 == 0) Perturb(&model, &perturb_rng);
    // Small entries over a small id range repeat ids, so kTop sees ties
    // and draws its reservoir.
    std::vector<EntityId> entry(1 + setup.UniformInt(12));
    for (EntityId& e : entry) e = static_cast<EntityId>(setup.UniformInt(8));
    const EntityId fixed = static_cast<EntityId>(setup.UniformInt(kEntities));
    const RelationId r = static_cast<RelationId>(setup.UniformInt(kRelations));
    EntityId got, want;
    if (step % 2 == 0) {
      got = production.SelectHead(entry, r, fixed, &rng);
      want = reference.SelectHead(entry, r, fixed, &oracle_rng);
    } else {
      got = production.SelectTail(entry, fixed, r, &rng);
      want = reference.SelectTail(entry, fixed, r, &oracle_rng);
    }
    ASSERT_EQ(got, want) << "select " << step;
    ASSERT_EQ(rng.Next(), oracle_rng.Next()) << "select " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, SelectParityTest,
    ::testing::Values(CacheSelectStrategy::kUniform,
                      CacheSelectStrategy::kImportanceSampling,
                      CacheSelectStrategy::kTop),
    [](const ::testing::TestParamInfo<CacheSelectStrategy>& info) {
      return CacheSelectStrategyName(info.param);
    });

TEST(GumbelTopKParityTest, MatchesPartialSortOracle) {
  Rng logits_rng(8);
  Rng rng(19), oracle_rng(19);
  for (size_t n : {1u, 2u, 5u, 60u, 100u, 257u}) {
    for (int trial = 0; trial < 40; ++trial) {
      std::vector<double> logits(n);
      // Every fourth trial uses constant logits (the kUniform refresh).
      for (double& v : logits) {
        v = trial % 4 == 0 ? 0.0 : logits_rng.Uniform(-3.0, 3.0);
      }
      for (int k : {0, 1, static_cast<int>(n / 2), static_cast<int>(n)}) {
        std::vector<int> got;
        GumbelTopK(logits, k, &rng, &got);
        const std::vector<int> want = oracle::GumbelTopK(logits, k, &oracle_rng);
        ASSERT_EQ(got, want) << "n=" << n << " k=" << k;
        const uint64_t next = oracle_rng.Next();
        ASSERT_EQ(rng.Next(), next);
      }
    }
  }
}

TEST(UniformIntParityTest, StreamsMatchPerCallThresholdOracle) {
  const uint64_t kTwo63 = uint64_t{1} << 63;
  std::vector<uint64_t> ns = {1,
                              2,
                              3,
                              7,
                              64,
                              1000,
                              uint64_t{1} << 20,
                              uint64_t{1} << 32,
                              (uint64_t{1} << 32) + 1,
                              kTwo63 - 1,
                              kTwo63,
                              kTwo63 + 1,
                              3 * (uint64_t{1} << 62),
                              ~uint64_t{0}};
  Rng n_rng(6);
  for (int i = 0; i < 16; ++i) ns.push_back(1 + (n_rng.Next() >> (i * 4)));
  for (uint64_t n : ns) {
    Rng rng(n ^ 0x5151), oracle_rng(n ^ 0x5151);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(rng.UniformInt(n), oracle::UniformInt(&oracle_rng, n))
          << "n=" << n << " draw " << i;
    }
    ASSERT_EQ(rng.Next(), oracle_rng.Next()) << "n=" << n;
  }
}

// FNV-1a over a dataset's vocabulary and its three splits.
uint64_t Fingerprint(const Dataset& d) {
  uint64_t h = 0xCBF29CE484222325ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001B3ULL;
    }
  };
  mix(static_cast<uint64_t>(d.num_entities()));
  mix(static_cast<uint64_t>(d.num_relations()));
  for (int32_t e = 0; e < d.entities.size(); ++e) {
    for (char c : d.entities.Name(e)) mix(static_cast<unsigned char>(c));
  }
  for (const TripleStore* split : {&d.train, &d.valid, &d.test}) {
    mix(split->size());
    for (const Triple& x : *split) {
      mix(static_cast<uint64_t>(x.h));
      mix(static_cast<uint64_t>(x.r));
      mix(static_cast<uint64_t>(x.t));
    }
  }
  return h;
}

SyntheticKgConfig WithSeed(SyntheticKgConfig config, uint64_t seed) {
  config.seed = seed;
  return config;
}

TEST(SyntheticKgPinTest, BenchmarkGraphsUnchanged) {
  // Recorded with the oracle's partial_sort GumbelTopK and per-call
  // threshold UniformInt. synth-FB15K237 at x1 and x2 is the benchmark's
  // graph family; the professions KG backs the cache-drift example.
  EXPECT_EQ(Fingerprint(GenerateSyntheticKg(WithSeed(SynthFb15k237Config(1.0), 111))),
            0xf02ebcd90936be58ULL);
  EXPECT_EQ(Fingerprint(GenerateSyntheticKg(WithSeed(SynthFb15k237Config(1.0), 121))),
            0x1f0f012aa4d51d1fULL);
  EXPECT_EQ(Fingerprint(GenerateSyntheticKg(WithSeed(SynthFb15k237Config(2.0), 130))),
            0x6022453c754c0dbdULL);
  EXPECT_EQ(Fingerprint(GenerateSyntheticKg(WithSeed(SynthWn18Config(0.5), 7))),
            0x04d0a9082dde13abULL);
  EXPECT_EQ(Fingerprint(GenerateSyntheticKg(WithSeed(SynthFb15kConfig(0.5), 7))),
            0x87eee4f3f6350310ULL);
  EXPECT_EQ(Fingerprint(GenerateProfessionsKg()), 0xdeaca79e154a9a4eULL);
}

}  // namespace
}  // namespace nsc
