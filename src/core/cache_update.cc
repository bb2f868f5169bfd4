#include "core/cache_update.h"

#include <cstdint>

#include "util/logging.h"
#include "util/math.h"
#include "util/stamp_set.h"

namespace nsc {

std::string CacheUpdateStrategyName(CacheUpdateStrategy s) {
  switch (s) {
    case CacheUpdateStrategy::kImportanceSampling:
      return "is";
    case CacheUpdateStrategy::kTop:
      return "top";
    case CacheUpdateStrategy::kUniform:
      return "uniform";
  }
  return "?";
}

namespace {

// Reused per-thread refresh buffers. thread_local because NSCaching
// refreshes run inside the Hogwild workers; after warm-up a refresh
// allocates nothing. The candidate scoring itself is one 1-vs-all sweep
// (KgeModel::Score{Head,Tail}Candidates gathers the pool rows into the
// model's own thread-local slab and broadcasts the fixed pair through
// ScoringFunction::ScoreAllCandidates).
struct RefreshScratch {
  std::vector<EntityId> pool;
  // Candidate scores (kImportanceSampling) or constant logits (kUniform).
  std::vector<double> scores;
  // Survivors as pool positions, in slot order.
  std::vector<int> picked;
  // kTop's retrieval output — N1 entries instead of N1+N2 scores.
  std::vector<TopKEntry> topk;
  // One set over the entity ids, emptied in O(1) and used twice per
  // refresh: first it holds the key's known-true candidates, so the
  // false-negative filter is one load per probe; then it holds the old
  // entry, so counting changed ids costs N1 stores and N1 loads.
  StampSet ids;
};

RefreshScratch& Scratch() {
  static thread_local RefreshScratch scratch;
  return scratch;
}

// Overwrites the entry's slots with pool[picked[i]] and returns how many
// of the new ids were not in the old entry (the CE measure of Figure 8).
int ReplaceEntry(std::vector<EntityId>* entry, RefreshScratch* s) {
  s->ids.Clear();
  for (EntityId e : *entry) s->ids.Mark(e);
  int changed = 0;
  for (size_t i = 0; i < entry->size(); ++i) {
    const EntityId e = s->pool[s->picked[i]];
    changed += !s->ids.Contains(e);
    (*entry)[i] = e;
  }
  return changed;
}

}  // namespace

CacheUpdater::CacheUpdater(const KgeModel* model, CacheUpdateStrategy strategy,
                           int n2, const KgIndex* filter_index)
    : model_(model),
      strategy_(strategy),
      n2_(n2),
      filter_index_(filter_index) {
  // Known-true ids are stamped into an array sized by the model.
  if (filter_index_ != nullptr) {
    CHECK_LE(filter_index_->num_entities(), model_->num_entities());
  }
}

int CacheUpdater::BuildPool(const std::vector<EntityId>& entry,
                            const StampSet& known, Rng* rng,
                            std::vector<EntityId>* pool) const {
  pool->clear();
  const uint64_t num_entities = static_cast<uint64_t>(model_->num_entities());
  int true_admissions = 0;
  auto draw_fresh = [&]() {
    EntityId e = static_cast<EntityId>(rng->UniformInt(num_entities));
    bool is_known = known.Contains(e);
    for (int retry = 0; retry < 10 && is_known; ++retry) {
      e = static_cast<EntityId>(rng->UniformInt(num_entities));
      is_known = known.Contains(e);
    }
    // Out of retries: the candidate space for this key is dominated by
    // true triples, and a known-true entity enters the pool anyway.
    // Count it so the filter's failure is observable.
    if (is_known) ++true_admissions;
    return e;
  };
  // Stale entry members that have since been recognised as true triples
  // are evicted in favour of fresh random candidates.
  for (EntityId e : entry) {
    pool->push_back(known.Contains(e) ? draw_fresh() : e);
  }
  for (int i = 0; i < n2_; ++i) pool->push_back(draw_fresh());
  return true_admissions;
}

CacheRefreshResult CacheUpdater::Refresh(std::vector<EntityId>* entry,
                                         CorruptionSide side, EntityId fixed,
                                         RelationId r, Rng* rng) const {
  const bool head = side == CorruptionSide::kHead;
  RefreshScratch& s = Scratch();
  s.ids.Reserve(static_cast<size_t>(model_->num_entities()));
  // Stamped once per refresh; with filtering off the set stays empty and
  // each fresh candidate is drawn once.
  s.ids.Clear();
  if (filter_index_ != nullptr) {
    for (EntityId e : head ? filter_index_->HeadsOf(r, fixed)
                           : filter_index_->TailsOf(fixed, r)) {
      s.ids.Mark(e);
    }
  }
  CacheRefreshResult result;
  result.true_admissions = BuildPool(*entry, s.ids, rng, &s.pool);
  const int n1 = static_cast<int>(entry->size());
  switch (strategy_) {
    case CacheUpdateStrategy::kImportanceSampling:
      // Eq. (6): survivors ∝ exp(score), without replacement — realised
      // exactly by the Gumbel-top-k trick on the raw scores.
      if (head) {
        model_->ScoreHeadCandidates(r, fixed, s.pool, &s.scores);
      } else {
        model_->ScoreTailCandidates(fixed, r, s.pool, &s.scores);
      }
      GumbelTopK(s.scores, n1, rng, &s.picked);
      break;
    case CacheUpdateStrategy::kTop: {
      TopKSweepStats stats;
      if (head) {
        model_->TopKHeadCandidates(r, fixed, s.pool, entry->size(), &s.topk,
                                   &stats);
      } else {
        model_->TopKTailCandidates(fixed, r, s.pool, entry->size(), &s.topk,
                                   &stats);
      }
      CHECK_EQ(s.topk.size(), entry->size());
      s.picked.resize(s.topk.size());
      for (size_t i = 0; i < s.topk.size(); ++i) {
        s.picked[i] = static_cast<int>(s.topk[i].index);
      }
      result.topk_tiles = stats.tiles;
      result.topk_pruned_tiles = stats.pruned_tiles;
      break;
    }
    case CacheUpdateStrategy::kUniform:
      // Uniform without replacement: Gumbel-top-k over constant logits.
      s.scores.assign(s.pool.size(), 0.0);
      GumbelTopK(s.scores, n1, rng, &s.picked);
      break;
  }
  result.changed = ReplaceEntry(entry, &s);
  return result;
}

CacheRefreshResult CacheUpdater::UpdateHeadEntry(std::vector<EntityId>* entry,
                                                 RelationId r, EntityId t,
                                                 Rng* rng) const {
  return Refresh(entry, CorruptionSide::kHead, t, r, rng);
}

CacheRefreshResult CacheUpdater::UpdateTailEntry(std::vector<EntityId>* entry,
                                                 EntityId h, RelationId r,
                                                 Rng* rng) const {
  return Refresh(entry, CorruptionSide::kTail, h, r, rng);
}

}  // namespace nsc
