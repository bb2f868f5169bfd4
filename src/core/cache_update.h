// Cache refresh strategies (step 8 of Algorithm 2 / Algorithm 3).
//
// Per update, N2 uniformly random entities are unioned with the N1 cached
// ones, all N1+N2 candidates are scored by the current model, and N1
// survivors are chosen. The paper's choice — *importance sampling* (IS) —
// samples the survivors without replacement with probability ∝ exp(score)
// (Eq. 6), balancing exploitation (high scores survive) with exploration
// (fresh random entities can enter). The ablations of §IV-C2 compare IS
// against deterministic top-N1 ("top update", which stagnates on false
// negatives) and uniform survivors ("uniform update", which never
// concentrates) — both implemented here.
#ifndef NSCACHING_CORE_CACHE_UPDATE_H_
#define NSCACHING_CORE_CACHE_UPDATE_H_

#include <string>
#include <vector>

#include "embedding/model.h"
#include "kg/kg_index.h"
#include "kg/types.h"
#include "util/rng.h"
#include "util/topk.h"

namespace nsc {

class StampSet;

/// How survivors are drawn from the N1+N2 candidate pool.
enum class CacheUpdateStrategy {
  kImportanceSampling,  // Paper's Algorithm 3 (Eq. 6).
  kTop,                 // Deterministic top-N1 by score.
  kUniform,             // Uniform N1 of the pool (ablation only).
};

std::string CacheUpdateStrategyName(CacheUpdateStrategy s);

/// What one entry refresh did.
struct CacheRefreshResult {
  /// Ids in the new entry that were not in the old one (the CE measure of
  /// Figure 8).
  int changed = 0;
  /// Known-true candidates admitted into the pool because the
  /// false-negative filter exhausted its redraw budget (0 when filtering
  /// is off). Exposed so the filter's effectiveness is observable instead
  /// of failing silently on keys whose candidate space is mostly true.
  int true_admissions = 0;
  /// Candidate tiles the kTop refresh's fused top-K sweep scored, and how
  /// many of them the bounded heap pruned (tile max <= running N1-th-best
  /// score — no heap work). Both 0 for the other strategies, which
  /// consume every candidate's score.
  std::size_t topk_tiles = 0;
  std::size_t topk_pruned_tiles = 0;
};

/// Refreshes cache entries against a model's current scores.
///
/// Stateless w.r.t. the cache: the entry vector is passed in (and mutated)
/// by the caller, who must hold the entry's shard lock across the call
/// (NSCachingSampler does this via NSC_REQUIRES-annotated helpers on a
/// TripletCache::LockedEntry — see nscaching_sampler.h). Model reads race
/// benignly with Hogwild writers; that is the tsan.supp territory, not a
/// lock-protocol concern.
///
/// A refresh costs its candidate scoring, its RNG draws and little else.
/// Every buffer it uses (pool, scores, Gumbel keys, survivors, and an
/// |E|-sized generation-stamped array) is thread-local scratch reused
/// across calls: concurrent Hogwild workers never share one, and a warm
/// refresh allocates nothing. The stamp array holds the key's known-true
/// set, stamped once per refresh so each filter probe is O(1), and then
/// the old entry, against which changed ids are counted.
class CacheUpdater {
 public:
  /// `model` is borrowed and must outlive the updater. `n2` is the number
  /// of random candidates per refresh (N2 in the paper). When
  /// `filter_index` is non-null, candidates that would form a known-true
  /// triple are replaced by fresh random entities during the refresh: the
  /// paper itself does not filter (it relies on |E| ~ 15k-93k making false
  /// negatives rare, §III-B1), but at this repo's scaled-down |E| the
  /// false-negative rate in the cache is ~100x the paper's, so filtering
  /// is what *preserves* the paper's operating regime (see DESIGN.md §3).
  /// The filter stamps the key's KgIndex::HeadsOf/TailsOf list into the
  /// thread's stamp array once per refresh and probes it in O(1) per
  /// candidate, so the index must not know more entities than the model.
  ///
  /// Strategy kTop refreshes select their N1 survivors through the fused
  /// sweep→top-K primitive (KgeModel::TopK{Head,Tail}Candidates) instead
  /// of scoring the pool into a buffer and scanning it — same survivors
  /// (util TopK's (score desc, index asc) tie order is the retrieval
  /// contract), no N1+N2 score buffer, and the tile-pruning counters are
  /// surfaced per refresh. kUniform scores nothing: its survivors do not
  /// depend on the scores.
  CacheUpdater(const KgeModel* model, CacheUpdateStrategy strategy, int n2,
               const KgIndex* filter_index = nullptr);

  /// Refreshes a head-cache entry for key (r, t): entry holds candidate
  /// heads h̄ scored by f(h̄, r, t).
  CacheRefreshResult UpdateHeadEntry(std::vector<EntityId>* entry,
                                     RelationId r, EntityId t, Rng* rng) const;

  /// Refreshes a tail-cache entry for key (h, r) with scores f(h, r, t̄).
  CacheRefreshResult UpdateTailEntry(std::vector<EntityId>* entry, EntityId h,
                                     RelationId r, Rng* rng) const;

  CacheUpdateStrategy strategy() const { return strategy_; }
  int n2() const { return n2_; }

 private:
  // One refresh of the `side` cache entry keyed by (fixed, r): `fixed` is
  // the tail of a head-cache key and the head of a tail-cache key.
  CacheRefreshResult Refresh(std::vector<EntityId>* entry, CorruptionSide side,
                             EntityId fixed, RelationId r, Rng* rng) const;
  // Builds pool = entry ∪ N2 random entities. `known` holds the key's
  // known-true candidates (empty when filtering is off, which then draws
  // each fresh candidate once).
  // Returns the number of known-true candidates admitted after retry
  // exhaustion.
  int BuildPool(const std::vector<EntityId>& entry,
                const StampSet& known, Rng* rng,
                std::vector<EntityId>* pool) const;

  const KgeModel* model_;
  CacheUpdateStrategy strategy_;
  int n2_;
  const KgIndex* filter_index_;
};

}  // namespace nsc

#endif  // NSCACHING_CORE_CACHE_UPDATE_H_
