#include "util/stamp_set.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace nsc {

// Test seam: moves a live set's generation so the wrap is reached
// without 2^32 clears.
class StampSetPeer {
 public:
  static uint32_t Generation(const StampSet& set) { return set.generation_; }
  static void SetGeneration(StampSet* set, uint32_t generation) {
    set->generation_ = generation;
  }
};

namespace {

constexpr uint32_t kMax = std::numeric_limits<uint32_t>::max();

TEST(StampSetTest, FreshAndGrownIdsAreNotMembers) {
  StampSet set;
  set.Reserve(8);
  for (int32_t id = 0; id < 8; ++id) EXPECT_FALSE(set.Contains(id));
  set.Mark(3);
  set.Reserve(16);
  EXPECT_TRUE(set.Contains(3));
  for (int32_t id = 8; id < 16; ++id) EXPECT_FALSE(set.Contains(id));
  // Never shrinks: ids up to 15 stay valid and keep their membership.
  set.Reserve(4);
  set.Mark(15);
  EXPECT_TRUE(set.Contains(3));
  EXPECT_TRUE(set.Contains(15));
}

TEST(StampSetTest, MarkContainsClear) {
  StampSet set;
  set.Reserve(10);
  set.Mark(2);
  set.Mark(7);
  set.Mark(7);
  for (int32_t id = 0; id < 10; ++id) {
    EXPECT_EQ(set.Contains(id), id == 2 || id == 7) << id;
  }
  set.Clear();
  for (int32_t id = 0; id < 10; ++id) EXPECT_FALSE(set.Contains(id)) << id;
  set.Mark(0);
  EXPECT_TRUE(set.Contains(0));
  EXPECT_FALSE(set.Contains(2));
}

TEST(StampSetTest, NoStampFromBeforeTheWrapReadsAsMemberAfterIt) {
  StampSet set;
  set.Reserve(64);
  // Stamps at low generations, as a long-running thread leaves them:
  // generation g stamps id g for g = 1..40.
  for (int32_t g = 1; g <= 40; ++g) {
    ASSERT_EQ(StampSetPeer::Generation(set), static_cast<uint32_t>(g));
    set.Mark(g);
    set.Clear();
  }
  // Jump near the top and stamp the last generations before the wrap.
  StampSetPeer::SetGeneration(&set, kMax - 3);
  for (int32_t id = 50; id < 54; ++id) {
    set.Mark(id);
    if (id < 53) set.Clear();
  }
  ASSERT_EQ(StampSetPeer::Generation(set), kMax);
  EXPECT_TRUE(set.Contains(53));
  EXPECT_FALSE(set.Contains(52));

  set.Clear();  // Wraps.
  EXPECT_EQ(StampSetPeer::Generation(set), 1u);
  // Walk the generations the old low stamps were written at: none may
  // come back, nor may the ones from just before the wrap.
  for (int32_t g = 1; g <= 45; ++g) {
    ASSERT_EQ(StampSetPeer::Generation(set), static_cast<uint32_t>(g));
    for (int32_t id = 0; id < 64; ++id) {
      ASSERT_FALSE(set.Contains(id)) << "id " << id << " at generation " << g;
    }
    set.Clear();
  }
  // The set still works after the wrap.
  set.Mark(9);
  EXPECT_TRUE(set.Contains(9));
  set.Clear();
  EXPECT_FALSE(set.Contains(9));
}

TEST(StampSetTest, WrapRightAfterAMarkEmptiesTheSet) {
  StampSet set;
  set.Reserve(4);
  StampSetPeer::SetGeneration(&set, kMax);
  set.Mark(1);
  EXPECT_TRUE(set.Contains(1));
  set.Clear();
  EXPECT_FALSE(set.Contains(1));
  // Generation 0 is never current: a zero stamp means "never marked".
  EXPECT_NE(StampSetPeer::Generation(set), 0u);
  for (int32_t id = 0; id < 4; ++id) EXPECT_FALSE(set.Contains(id));
}

}  // namespace
}  // namespace nsc
