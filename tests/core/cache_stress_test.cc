// Multi-thread stress and sharding-parity tests for the lock-striped
// TripletCache and the thread-safe NSCachingSampler.
//
// Two contracts:
//   1. Parity — an unbounded sharded cache reproduces the single-map
//      (1-shard) cache bit-for-bit on the same Rng stream: lazy init
//      consumes the caller's Rng identically regardless of striping.
//   2. Safety — N workers hammering a small shared key set (the worst
//      contention case: 1-N relations funnel many positives into one
//      entry) never corrupt an entry, lose a key, or miscount stats.
// This binary is also the primary target of the ThreadSanitizer CI job,
// where it runs with NO suppressions: everything it exercises must be
// genuinely race-free, not Hogwild-benign.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "core/nscaching_sampler.h"
#include "core/triplet_cache.h"
#include "kg/kg_index.h"

namespace nsc {
namespace {

TEST(ShardedCacheParityTest, ShardedMatchesSingleShardOnSameStream) {
  // Same interleaved sequence of fresh and repeated keys against a
  // 1-shard and an 8-shard unbounded cache, from identically seeded
  // streams: every entry must come out bit-for-bit equal.
  TripletCache single(6, 5000, /*max_entries=*/0, /*num_shards=*/1);
  TripletCache sharded(6, 5000, /*max_entries=*/0, /*num_shards=*/8);
  Rng rng_single(77), rng_sharded(77);
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k < 40; ++k) {
    keys.push_back(PackRt(static_cast<RelationId>(k % 5),
                          static_cast<EntityId>(k)));
  }
  // Touch pattern with repeats (repeats must not consume the stream).
  for (int round = 0; round < 3; ++round) {
    for (uint64_t key : keys) {
      const auto& a = single.GetOrInit(key, &rng_single);
      const auto& b = sharded.GetOrInit(key, &rng_sharded);
      ASSERT_EQ(a, b) << "round " << round << " key " << key;
    }
  }
  EXPECT_EQ(single.num_entries(), sharded.num_entries());
  EXPECT_EQ(sharded.num_entries(), keys.size());
}

TEST(ShardedCacheParityTest, AcquireAndGetOrInitAgree) {
  TripletCache via_acquire(4, 300, 0, 4);
  TripletCache via_getorinit(4, 300, 0, 4);
  Rng rng_a(9), rng_b(9);
  for (uint64_t key = 0; key < 25; ++key) {
    TripletCache::LockedEntry locked = via_acquire.Acquire(key, &rng_a);
    locked.AssertHeld();  // Bridges Acquire()'s dynamic shard pick.
    const auto& plain = via_getorinit.GetOrInit(key, &rng_b);
    EXPECT_EQ(locked.candidates(), plain);
  }
}

TEST(CacheStressTest, ConcurrentAcquireOnSharedKeys) {
  constexpr int kThreads = 8;
  constexpr int kIters = 3000;
  constexpr int kCapacity = 8;
  constexpr int32_t kEntities = 1000;
  constexpr uint64_t kKeys = 7;  // Few keys -> heavy same-entry contention.
  TripletCache cache(kCapacity, kEntities, /*max_entries=*/0,
                     /*num_shards=*/8);

  Rng seeder(123);
  std::vector<Rng> rngs;
  for (int t = 0; t < kThreads; ++t) rngs.push_back(seeder.Split());

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      Rng& rng = rngs[t];
      for (int i = 0; i < kIters; ++i) {
        const uint64_t key = rng.UniformInt(kKeys);
        TripletCache::LockedEntry entry = cache.Acquire(key, &rng);
        entry.AssertHeld();
        std::vector<EntityId>& c = entry.candidates();
        ASSERT_EQ(c.size(), static_cast<size_t>(kCapacity));
        for (EntityId e : c) {
          ASSERT_GE(e, 0);
          ASSERT_LT(e, kEntities);
        }
        // Mutate under the lock the way a cache refresh would.
        c[rng.UniformInt(kCapacity)] =
            static_cast<EntityId>(rng.UniformInt(kEntities));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(cache.num_entries(), kKeys);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(CacheStressTest, ConcurrentAcquireOnBoundedCacheEvicts) {
  constexpr int kThreads = 6;
  constexpr int kIters = 2000;
  TripletCache cache(4, 500, /*max_entries=*/16, /*num_shards=*/4);

  Rng seeder(321);
  std::vector<Rng> rngs;
  for (int t = 0; t < kThreads; ++t) rngs.push_back(seeder.Split());

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      Rng& rng = rngs[t];
      for (int i = 0; i < kIters; ++i) {
        const uint64_t key = rng.UniformInt(200);  // Far over the bound.
        TripletCache::LockedEntry entry = cache.Acquire(key, &rng);
        entry.AssertHeld();
        ASSERT_EQ(entry.candidates().size(), 4u);
      }
    });
  }
  for (auto& th : threads) th.join();
  // Per-shard cap is ceil(16/4) = 4; every shard must respect it.
  EXPECT_LE(cache.num_entries(), 16u);
  EXPECT_GT(cache.evictions(), 0u);
}

TEST(CacheStressTest, ConcurrentNSCachingSamplerOnSharedKeys) {
  // The real workload: N Hogwild workers call Sample() with per-worker
  // streams on positives that deliberately collide on (r, t) and (h, r)
  // keys. The model is fixed, so every shared access in here must be
  // properly synchronized (shard locks + atomic stats) — this is the
  // no-suppressions TSan target. Every update and select strategy runs:
  // each keeps its buffers (pool, scores, Gumbel keys, survivors, the
  // changed-id stamp array, select scores and softmax) in thread-local
  // scratch, and a buffer shared between workers would race here.
  constexpr int32_t kEntities = 50;
  constexpr int kThreads = 6;
  constexpr int kSamplesPerThread = 400;

  TripleStore store(kEntities, 3);
  for (EntityId h = 0; h < 10; ++h) {
    // Many triples share (r=0, t=20) and each (h, 0) — 1-N/N-1 contention.
    store.Add({h, 0, 20});
    store.Add({h, 1, static_cast<EntityId>(30 + h % 3)});
  }
  const KgIndex index(store);
  KgeModel model(kEntities, 3, 8, MakeScoringFunction("transe"));
  Rng init_rng(5);
  model.InitXavier(&init_rng);

  for (CacheUpdateStrategy update :
       {CacheUpdateStrategy::kImportanceSampling, CacheUpdateStrategy::kTop,
        CacheUpdateStrategy::kUniform}) {
    for (CacheSelectStrategy select :
         {CacheSelectStrategy::kUniform,
          CacheSelectStrategy::kImportanceSampling,
          CacheSelectStrategy::kTop}) {
      SCOPED_TRACE("update " + CacheUpdateStrategyName(update) + ", select " +
                   CacheSelectStrategyName(select));
      NSCachingConfig config;
      config.n1 = 6;
      config.n2 = 6;
      config.cache_shards = 8;
      config.update_strategy = update;
      config.select_strategy = select;
      NSCachingSampler sampler(&model, &index, config);
      ASSERT_TRUE(sampler.thread_safe_sampling());
      sampler.BeginEpoch(0);
      ASSERT_TRUE(sampler.updates_enabled());

      Rng seeder(99);
      std::vector<Rng> rngs;
      for (int t = 0; t < kThreads; ++t) rngs.push_back(seeder.Split());

      std::vector<std::thread> threads;
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t]() {
          Rng& rng = rngs[t];
          for (int i = 0; i < kSamplesPerThread; ++i) {
            const Triple& pos = store[rng.UniformInt(store.size())];
            const NegativeSample neg = sampler.Sample(pos, &rng);
            ASSERT_EQ(neg.triple.r, pos.r);
            if (neg.side == CorruptionSide::kHead) {
              ASSERT_EQ(neg.triple.t, pos.t);
              ASSERT_GE(neg.triple.h, 0);
              ASSERT_LT(neg.triple.h, kEntities);
            } else {
              ASSERT_EQ(neg.triple.h, pos.h);
              ASSERT_GE(neg.triple.t, 0);
              ASSERT_LT(neg.triple.t, kEntities);
            }
          }
        });
      }
      for (auto& th : threads) th.join();

      // Atomic accounting: nothing lost under contention. Both a head and
      // a tail candidate are drawn per Sample (selections += 2) and both
      // entries are refreshed (updates += 2).
      const int64_t total = int64_t{kThreads} * kSamplesPerThread;
      const CacheStats stats = sampler.stats();
      EXPECT_EQ(stats.selections, 2 * total);
      EXPECT_EQ(stats.updates, 2 * total);
      EXPECT_GE(stats.changed_elements, 0);

      // Entries stay well-formed: exactly N1 in-universe ids per key.
      for (const Triple& pos : store) {
        const auto* head = sampler.head_cache().Find(PackRt(pos.r, pos.t));
        const auto* tail = sampler.tail_cache().Find(PackHr(pos.h, pos.r));
        ASSERT_NE(head, nullptr);
        ASSERT_NE(tail, nullptr);
        EXPECT_EQ(head->size(), static_cast<size_t>(config.n1));
        EXPECT_EQ(tail->size(), static_cast<size_t>(config.n1));
        for (const auto* entry : {head, tail}) {
          for (EntityId e : *entry) {
            EXPECT_GE(e, 0);
            EXPECT_LT(e, kEntities);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace nsc
