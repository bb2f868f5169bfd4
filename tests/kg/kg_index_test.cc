#include "kg/kg_index.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/rng.h"

namespace nsc {
namespace {

// A small graph with a clear 1-N relation (r0: head 0 -> tails 1,2,3) and a
// clear N-1 relation (r1: heads 1,2,3 -> tail 4).
TripleStore MakeStore() {
  TripleStore store(6, 2);
  store.Add({0, 0, 1});
  store.Add({0, 0, 2});
  store.Add({0, 0, 3});
  store.Add({1, 1, 4});
  store.Add({2, 1, 4});
  store.Add({3, 1, 4});
  return store;
}

TEST(KgIndexTest, ContainsExactlyAddedTriples) {
  const TripleStore store = MakeStore();
  const KgIndex index(store);
  EXPECT_TRUE(index.Contains({0, 0, 1}));
  EXPECT_TRUE(index.Contains({3, 1, 4}));
  EXPECT_FALSE(index.Contains({1, 0, 0}));   // Reversed.
  EXPECT_FALSE(index.Contains({0, 1, 1}));   // Wrong relation.
  EXPECT_FALSE(index.Contains({5, 0, 5}));
  EXPECT_EQ(index.num_triples(), 6u);
}

TEST(KgIndexTest, AdjacencyLists) {
  const KgIndex index(MakeStore());
  auto tails = index.TailsOf(0, 0);
  std::sort(tails.begin(), tails.end());
  EXPECT_EQ(tails, (std::vector<EntityId>{1, 2, 3}));
  auto heads = index.HeadsOf(1, 4);
  std::sort(heads.begin(), heads.end());
  EXPECT_EQ(heads, (std::vector<EntityId>{1, 2, 3}));
  EXPECT_TRUE(index.TailsOf(5, 0).empty());
  EXPECT_TRUE(index.HeadsOf(0, 5).empty());
}

TEST(KgIndexTest, CardinalityStatistics) {
  const KgIndex index(MakeStore());
  // r0: one (h,r) pair with 3 triples -> tph = 3; three (r,t) pairs -> hpt = 1.
  EXPECT_DOUBLE_EQ(index.TailsPerHead(0), 3.0);
  EXPECT_DOUBLE_EQ(index.HeadsPerTail(0), 1.0);
  // r1 is the mirror image.
  EXPECT_DOUBLE_EQ(index.TailsPerHead(1), 1.0);
  EXPECT_DOUBLE_EQ(index.HeadsPerTail(1), 3.0);
}

TEST(KgIndexTest, BernoulliHeadReplaceProbability) {
  const KgIndex index(MakeStore());
  // 1-N relation (r0): corrupting the head is safer -> p_head = 3/4.
  EXPECT_DOUBLE_EQ(index.HeadReplaceProbability(0), 0.75);
  // N-1 relation (r1): corrupting the tail is safer -> p_head = 1/4.
  EXPECT_DOUBLE_EQ(index.HeadReplaceProbability(1), 0.25);
}

TEST(KgIndexTest, UnseenRelationFallsBackToHalf) {
  TripleStore store(4, 3);
  store.Add({0, 0, 1});
  const KgIndex index(store);
  EXPECT_DOUBLE_EQ(index.HeadReplaceProbability(2), 0.5);
}

TEST(KgIndexTest, EntityDegrees) {
  const KgIndex index(MakeStore());
  const auto& deg = index.entity_degrees();
  EXPECT_EQ(deg[0], 3);  // Head of three r0 triples.
  EXPECT_EQ(deg[4], 3);  // Tail of three r1 triples.
  EXPECT_EQ(deg[1], 2);  // Tail of one r0, head of one r1.
  EXPECT_EQ(deg[5], 0);
}

TEST(KgIndexTest, MultipleStoresMergedWithDedup) {
  TripleStore a(4, 1), b(4, 1);
  a.Add({0, 0, 1});
  a.Add({1, 0, 2});
  b.Add({1, 0, 2});  // Duplicate across stores.
  b.Add({2, 0, 3});
  const KgIndex index(std::vector<const TripleStore*>{&a, &b});
  EXPECT_EQ(index.num_triples(), 3u);
  EXPECT_TRUE(index.Contains({2, 0, 3}));
}

TEST(KgIndexTest, DuplicateTriplesWithinStoreCountedOnce) {
  TripleStore store(3, 1);
  store.Add({0, 0, 1});
  store.Add({0, 0, 1});
  const KgIndex index(store);
  EXPECT_EQ(index.num_triples(), 1u);
  EXPECT_EQ(index.TailsOf(0, 0).size(), 1u);
}

TEST(KgIndexTest, AdjacencyListsStrictlyIncreasing) {
  // Out-of-order inserts, duplicates within and across stores: every
  // HeadsOf/TailsOf list must still come out sorted and duplicate-free,
  // and a binary search over it must agree with Contains.
  TripleStore a(40, 2), b(40, 2);
  Rng rng(3);
  for (int i = 0; i < 400; ++i) {
    const EntityId h = static_cast<EntityId>(rng.UniformInt(40));
    const EntityId t = static_cast<EntityId>(rng.UniformInt(40));
    const RelationId r = static_cast<RelationId>(rng.UniformInt(2));
    (i % 3 == 0 ? b : a).Add({h, r, t});
  }
  for (EntityId h = 39; h >= 0; --h) a.Add({h, 1, 0});  // Descending, long.
  const KgIndex index(std::vector<const TripleStore*>{&a, &b});
  for (const TripleStore* store : {&a, &b}) {
    for (const Triple& x : *store) {
      for (const std::vector<EntityId>* list :
           {&index.HeadsOf(x.r, x.t), &index.TailsOf(x.h, x.r)}) {
        ASSERT_FALSE(list->empty());
        for (size_t i = 1; i < list->size(); ++i) {
          ASSERT_LT((*list)[i - 1], (*list)[i]);
        }
      }
      for (EntityId e = 0; e < 40; ++e) {
        const std::vector<EntityId>& heads = index.HeadsOf(x.r, x.t);
        const std::vector<EntityId>& tails = index.TailsOf(x.h, x.r);
        ASSERT_EQ(std::binary_search(heads.begin(), heads.end(), e),
                  index.Contains({e, x.r, x.t}));
        ASSERT_EQ(std::binary_search(tails.begin(), tails.end(), e),
                  index.Contains({x.h, x.r, e}));
      }
    }
  }
  EXPECT_EQ(index.HeadsOf(1, 0).size(), 40u);
}

}  // namespace
}  // namespace nsc
