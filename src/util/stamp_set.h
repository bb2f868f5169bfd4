// A set of ids over a dense universe [0, n) that empties in O(1).
//
// Each id owns one uint32_t stamp; an id is a member iff its stamp equals
// the current generation. Clear() bumps the generation, so emptying the
// set costs nothing per member and a membership probe is one load and
// one compare. Only when the generation wraps past 2^32 - 1 are all
// stamps zeroed, so a stamp written before the wrap can never alias a
// later generation. The NSCaching refresh keeps one per thread and
// reuses it for the false-negative filter and the changed-id count.
#ifndef NSCACHING_UTIL_STAMP_SET_H_
#define NSCACHING_UTIL_STAMP_SET_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace nsc {

class StampSet {
 public:
  /// Grows the universe to at least [0, n). New ids are not members;
  /// membership of existing ids is kept. Never shrinks.
  void Reserve(std::size_t n) {
    if (stamp_.size() < n) stamp_.resize(n, 0);
  }

  /// Empties the set. O(1), except on the one call in 2^32 - 1 where the
  /// generation wraps and every stamp is zeroed.
  void Clear() {
    if (++generation_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0);
      generation_ = 1;
    }
  }

  /// Adds `id`, which must be below the reserved universe size.
  void Mark(int32_t id) {
    stamp_[static_cast<std::size_t>(id)] = generation_;
  }

  bool Contains(int32_t id) const {
    return stamp_[static_cast<std::size_t>(id)] == generation_;
  }

 private:
  // Lets the wrap test start near UINT32_MAX instead of clearing 2^32
  // times.
  friend class StampSetPeer;

  std::vector<uint32_t> stamp_;
  // Stamps start at 0, so generation 0 is never current: a fresh set and
  // every newly reserved id are empty.
  uint32_t generation_ = 1;
};

}  // namespace nsc

#endif  // NSCACHING_UTIL_STAMP_SET_H_
