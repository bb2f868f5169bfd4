// The negative-triplet cache of NSCaching (§III-B of the paper).
//
// Two caches are kept: the head cache H, indexed by the (r, t) pair of a
// positive triple and holding candidate replacement heads h̄; and the tail
// cache T, indexed by (h, r) and holding candidate tails t̄. Both are
// instances of this class — only the 64-bit key packing differs
// (PackRt / PackHr in kg/types.h).
//
// Entries hold exactly N1 entity ids and are lazily initialised with
// uniform random entities on first touch, matching the authors' released
// implementation. Because many positives share an (r, t) or (h, r) pair
// (1-N/N-1/N-N relations), the number of entries is far below |S| — the
// space argument of §III-B3.
//
// Sharding / thread safety: the key space is partitioned into `num_shards`
// lock-striped shards (hashed key -> shard), each with its own map, LRU
// list and mutex, so Hogwild workers can select from and refresh disjoint
// entries concurrently. Acquire() hands out an entry together with its
// shard lock; Find() is a read-only lookup for inspecting a quiescent
// cache (benches, examples).
// Lazy initialisation consumes the caller's Rng identically regardless of
// the shard count, so an unbounded cache produces bit-for-bit the same
// entries whether it has 1 shard or 64 (pinned by cache_stress_test).
//
// The lock protocol is annotated for Clang's thread-safety analysis
// (util/thread_annotations.h): every Shard field is NSC_GUARDED_BY its
// mutex, the lock-assuming helpers are NSC_REQUIRES, and LockedEntry is a
// scoped capability — candidates() cannot be reached without it. See
// README "Static analysis".
#ifndef NSCACHING_CORE_TRIPLET_CACHE_H_
#define NSCACHING_CORE_TRIPLET_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "kg/types.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/thread_annotations.h"

namespace nsc {

/// One key -> N1 candidate entities map with lazy random initialisation,
/// lock-striped into shards for concurrent access.
///
/// The paper's conclusion flags cache memory as the obstacle at
/// millions-scale KGs and names hashing as future work; `max_entries`
/// implements that bound: when set, the cache holds at most that many keys
/// and evicts the least-recently-touched one on overflow (an evicted key
/// is re-initialised randomly if touched again — it simply restarts its
/// warm-up). `max_entries = 0` keeps the paper's unbounded behaviour.
/// With more than one shard the bound and the LRU order are maintained
/// per shard (cap = ceil(max_entries / num_shards)); a single shard
/// reproduces the exact global-LRU semantics.
class TripletCache {
 private:
  struct Shard;  // Defined below; LockedEntry's constructor names it.

 public:
  /// `capacity` is N1; `num_entities` bounds the random initial content;
  /// `num_shards` (>= 1) is the lock-striping factor.
  TripletCache(int capacity, int32_t num_entities, size_t max_entries = 0,
               int num_shards = 1);

  /// An entry plus its held shard lock — a scoped capability: the shard
  /// (and so every other key hashing to it) stays locked for the handle's
  /// lifetime, so keep the critical section short. Never hold two handles
  /// from the same cache at once (self-deadlock when the keys share a
  /// shard).
  ///
  /// candidates() requires the capability, so code holding only a stale
  /// reference to the vector cannot pass the analysis. After obtaining a
  /// handle from Acquire(), call AssertHeld() once: the factory picks the
  /// shard dynamically, which is the one hop the static analysis cannot
  /// follow (see Acquire()).
  class NSC_SCOPED_CAPABILITY LockedEntry {
   public:
    ~LockedEntry() NSC_RELEASE() { mu_->Unlock(); }

    LockedEntry(const LockedEntry&) = delete;
    LockedEntry& operator=(const LockedEntry&) = delete;

    /// The entry's candidate ids; may be read and written freely while
    /// the handle is alive (the analysis enforces exactly that).
    std::vector<EntityId>& candidates() const NSC_REQUIRES(this) {
      return *candidates_;
    }

    /// Statically asserts that this handle holds its shard lock — true by
    /// construction; bridges the Acquire() factory boundary.
    void AssertHeld() const NSC_ASSERT_CAPABILITY() {}

   private:
    friend class TripletCache;
    /// Locks `shard` and lazily initialises `key`'s entry under the lock.
    LockedEntry(TripletCache* cache, Shard* shard, uint64_t key, Rng* rng)
        NSC_ACQUIRE(shard->mu);

    Mutex* mu_;
    std::vector<EntityId>* candidates_;
  };

  /// Locks the key's shard, creates the entry with `capacity` uniform
  /// random entities when absent, and returns it with the lock held.
  LockedEntry Acquire(uint64_t key, Rng* rng);

  /// Returns the entry or nullptr when the key was never touched. The
  /// shard lock is taken for the lookup but released on return, so only
  /// call this while no other thread is mutating the cache.
  const std::vector<EntityId>* Find(uint64_t key) const;

  int capacity() const { return capacity_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Total live keys across all shards.
  size_t num_entries() const;

  /// Total cached ids = num_entries() * N1 — the memory footprint
  /// discussed in §III-B3.
  size_t num_cached_ids() const { return num_entries() * capacity_; }

  void Clear();

  size_t max_entries() const { return max_entries_; }
  /// Number of entries discarded due to the memory bound (all shards).
  size_t evictions() const;

 private:
  struct Entry {
    std::vector<EntityId> candidates;
    // Position in the owning shard's lru (valid only when bounded).
    std::list<uint64_t>::iterator lru_pos;
  };

  /// One lock stripe: its own map, LRU list and eviction counter, all
  /// guarded by the stripe's mutex.
  struct Shard {
    mutable Mutex mu;
    std::unordered_map<uint64_t, Entry> entries NSC_GUARDED_BY(mu);
    std::list<uint64_t> lru NSC_GUARDED_BY(mu);  // Front = most recent.
    size_t evictions NSC_GUARDED_BY(mu) = 0;
  };

  Shard& ShardFor(uint64_t key) const;
  /// Lookup-or-create body of Acquire; the caller must hold `shard->mu`.
  std::vector<EntityId>* GetOrInitLocked(Shard* shard, uint64_t key, Rng* rng)
      NSC_REQUIRES(shard->mu);
  void Touch(Shard* shard, uint64_t key, Entry* entry)
      NSC_REQUIRES(shard->mu);

  int capacity_;
  int32_t num_entities_;
  size_t max_entries_;        // Requested global bound (0 = unbounded).
  size_t shard_max_entries_;  // Per-shard bound derived from it.
  // unique_ptr because Shard owns a mutex (immovable).
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace nsc

#endif  // NSCACHING_CORE_TRIPLET_CACHE_H_
