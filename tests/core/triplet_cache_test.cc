#include "core/triplet_cache.h"

#include <gtest/gtest.h>

namespace nsc {
namespace {

// A copy of `key`'s entry, created on first touch; the shard lock is
// released on return.
std::vector<EntityId> Get(TripletCache* cache, uint64_t key, Rng* rng) {
  TripletCache::LockedEntry entry = cache->Acquire(key, rng);
  entry.AssertHeld();  // Bridges Acquire()'s dynamic shard pick.
  return entry.candidates();
}

TEST(TripletCacheTest, LazyInitFillsToCapacity) {
  TripletCache cache(5, 100);
  Rng rng(1);
  const auto entry = Get(&cache, PackRt(2, 3), &rng);
  EXPECT_EQ(entry.size(), 5u);
  for (EntityId e : entry) {
    EXPECT_GE(e, 0);
    EXPECT_LT(e, 100);
  }
  EXPECT_EQ(cache.num_entries(), 1u);
}

TEST(TripletCacheTest, SecondGetReturnsSameEntry) {
  TripletCache cache(4, 50);
  Rng rng(2);
  {
    TripletCache::LockedEntry a = cache.Acquire(7, &rng);
    a.AssertHeld();
    a.candidates()[0] = 42;
  }
  EXPECT_EQ(Get(&cache, 7, &rng)[0], 42);
  EXPECT_EQ(cache.num_entries(), 1u);
}

TEST(TripletCacheTest, DistinctKeysDistinctEntries) {
  TripletCache cache(3, 50);
  Rng rng(3);
  Get(&cache, PackHr(1, 0), &rng);
  Get(&cache, PackHr(2, 0), &rng);
  Get(&cache, PackRt(0, 1), &rng);
  EXPECT_EQ(cache.num_entries(), 3u);
  EXPECT_EQ(cache.num_cached_ids(), 9u);
}

TEST(TripletCacheTest, FindWithoutInit) {
  TripletCache cache(3, 50);
  Rng rng(4);
  EXPECT_EQ(cache.Find(11), nullptr);
  Get(&cache, 11, &rng);
  ASSERT_NE(cache.Find(11), nullptr);
  EXPECT_EQ(cache.Find(11)->size(), 3u);
}

TEST(TripletCacheTest, SharedKeyAcrossPositives) {
  // Positives sharing (r, t) must share one head-cache entry — the space
  // saving of §III-B3 on 1-N/N-1 relations.
  TripletCache head_cache(4, 50);
  Rng rng(5);
  const Triple a{1, 0, 9}, b{2, 0, 9};  // Same (r, t) = (0, 9).
  const std::vector<EntityId>* ea = nullptr;
  const std::vector<EntityId>* eb = nullptr;
  {
    TripletCache::LockedEntry entry =
        head_cache.Acquire(PackRt(a.r, a.t), &rng);
    entry.AssertHeld();
    ea = &entry.candidates();
  }
  {
    TripletCache::LockedEntry entry =
        head_cache.Acquire(PackRt(b.r, b.t), &rng);
    entry.AssertHeld();
    eb = &entry.candidates();
  }
  EXPECT_EQ(ea, eb);
  EXPECT_EQ(head_cache.num_entries(), 1u);
}

TEST(TripletCacheTest, ClearEmptiesEverything) {
  TripletCache cache(2, 10);
  Rng rng(6);
  Get(&cache, 1, &rng);
  Get(&cache, 2, &rng);
  cache.Clear();
  EXPECT_EQ(cache.num_entries(), 0u);
  EXPECT_EQ(cache.Find(1), nullptr);
}

TEST(BoundedTripletCacheTest, NeverExceedsMaxEntries) {
  TripletCache cache(3, 100, /*max_entries=*/4);
  Rng rng(8);
  for (uint64_t key = 0; key < 50; ++key) {
    Get(&cache, key, &rng);
    EXPECT_LE(cache.num_entries(), 4u);
  }
  EXPECT_EQ(cache.evictions(), 46u);
}

TEST(BoundedTripletCacheTest, EvictsLeastRecentlyTouched) {
  TripletCache cache(2, 100, /*max_entries=*/3);
  Rng rng(9);
  Get(&cache, 1, &rng);
  Get(&cache, 2, &rng);
  Get(&cache, 3, &rng);
  Get(&cache, 1, &rng);  // Refresh key 1; key 2 is now the LRU.
  Get(&cache, 4, &rng);  // Evicts key 2.
  EXPECT_NE(cache.Find(1), nullptr);
  EXPECT_EQ(cache.Find(2), nullptr);
  EXPECT_NE(cache.Find(3), nullptr);
  EXPECT_NE(cache.Find(4), nullptr);
}

TEST(BoundedTripletCacheTest, EvictedKeyReinitialises) {
  TripletCache cache(4, 1000000, /*max_entries=*/1);
  Rng rng(10);
  const auto first = Get(&cache, 7, &rng);
  Get(&cache, 8, &rng);  // Evicts 7.
  const auto second = Get(&cache, 7, &rng);  // Fresh random content.
  EXPECT_EQ(second.size(), 4u);
  EXPECT_NE(first, second);  // Overwhelmingly likely with 1M entities.
}

TEST(BoundedTripletCacheTest, UnboundedNeverEvicts) {
  TripletCache cache(2, 10, /*max_entries=*/0);
  Rng rng(11);
  for (uint64_t key = 0; key < 200; ++key) Get(&cache, key, &rng);
  EXPECT_EQ(cache.num_entries(), 200u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(TripletCacheTest, InitIsRandomAcrossKeys) {
  TripletCache cache(20, 1000000);
  Rng rng(7);
  const auto a = Get(&cache, 1, &rng);
  const auto b = Get(&cache, 2, &rng);
  EXPECT_NE(a, b);  // Overwhelmingly likely with 1M entities.
}

}  // namespace
}  // namespace nsc
