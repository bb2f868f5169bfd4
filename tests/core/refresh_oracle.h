// Reference oracle for the NSCaching cache refresh and cache select.
//
// This is the straightforward implementation the production path in
// src/core/cache_update.cc, src/core/cache_select.cc, util GumbelTopK and
// Rng::UniformInt must reproduce bit for bit:
//   - the false-negative filter probes KgIndex::Contains (a hash lookup)
//     per candidate, through a std::function;
//   - survivors come from a std::partial_sort over freshly allocated
//     (Gumbel key, index) pairs;
//   - the changed-id count builds a std::unordered_set of the old entry;
//   - UniformInt computes its rejection threshold (one 64-bit division)
//     on every call;
//   - every select allocates its score and probability vectors.
// It is kept here, not in src/, because nothing but the parity test
// (refresh_parity_test.cc) runs it. Candidate scoring is not part of the
// oracle: both sides call the same KgeModel scoring entry points.
#ifndef NSCACHING_TESTS_CORE_REFRESH_ORACLE_H_
#define NSCACHING_TESTS_CORE_REFRESH_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/cache_select.h"
#include "core/cache_update.h"
#include "embedding/model.h"
#include "kg/kg_index.h"
#include "kg/types.h"
#include "util/math.h"
#include "util/rng.h"
#include "util/topk.h"

namespace nsc {
namespace oracle {

/// Uniform integer in [0, n) with the rejection threshold
/// (2^64 - n) mod n computed up front on every call.
inline uint64_t UniformInt(Rng* rng, uint64_t n) {
  const uint64_t threshold = (~n + 1) % n;
  for (;;) {
    const uint64_t r = rng->Next();
    if (r >= threshold) return r % n;
  }
}

/// Gumbel-top-k by partial_sort over a freshly allocated key array.
inline std::vector<int> GumbelTopK(const std::vector<double>& logits, int k,
                                   Rng* rng) {
  std::vector<std::pair<double, int>> keyed(logits.size());
  for (size_t i = 0; i < logits.size(); ++i) {
    keyed[i] = {logits[i] + rng->Gumbel(), static_cast<int>(i)};
  }
  std::partial_sort(
      keyed.begin(), keyed.begin() + k, keyed.end(),
      [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<int> out(k);
  for (int i = 0; i < k; ++i) out[i] = keyed[i].second;
  return out;
}

/// The cache refresh: same interface and results as CacheUpdater.
class CacheUpdater {
 public:
  CacheUpdater(const KgeModel* model, CacheUpdateStrategy strategy, int n2,
               const KgIndex* filter_index)
      : model_(model),
        strategy_(strategy),
        n2_(n2),
        filter_index_(filter_index) {}

  CacheRefreshResult UpdateHeadEntry(std::vector<EntityId>* entry,
                                     RelationId r, EntityId t,
                                     Rng* rng) const {
    auto is_known = [&](EntityId h_bar) {
      return filter_index_ != nullptr && filter_index_->Contains({h_bar, r, t});
    };
    std::vector<EntityId> pool;
    CacheRefreshResult result;
    result.true_admissions = BuildPool(*entry, rng, is_known, &pool);
    if (strategy_ == CacheUpdateStrategy::kTop) {
      std::vector<TopKEntry> topk;
      TopKSweepStats stats;
      model_->TopKHeadCandidates(r, t, pool, entry->size(), &topk, &stats);
      result.changed = ApplyTopK(entry, topk, pool);
      result.topk_tiles = stats.tiles;
      result.topk_pruned_tiles = stats.pruned_tiles;
      return result;
    }
    std::vector<double> scores;
    model_->ScoreHeadCandidates(r, t, pool, &scores);
    result.changed = Update(entry, rng, scores, pool);
    return result;
  }

  CacheRefreshResult UpdateTailEntry(std::vector<EntityId>* entry, EntityId h,
                                     RelationId r, Rng* rng) const {
    auto is_known = [&](EntityId t_bar) {
      return filter_index_ != nullptr && filter_index_->Contains({h, r, t_bar});
    };
    std::vector<EntityId> pool;
    CacheRefreshResult result;
    result.true_admissions = BuildPool(*entry, rng, is_known, &pool);
    if (strategy_ == CacheUpdateStrategy::kTop) {
      std::vector<TopKEntry> topk;
      TopKSweepStats stats;
      model_->TopKTailCandidates(h, r, pool, entry->size(), &topk, &stats);
      result.changed = ApplyTopK(entry, topk, pool);
      result.topk_tiles = stats.tiles;
      result.topk_pruned_tiles = stats.pruned_tiles;
      return result;
    }
    std::vector<double> scores;
    model_->ScoreTailCandidates(h, r, pool, &scores);
    result.changed = Update(entry, rng, scores, pool);
    return result;
  }

 private:
  int BuildPool(const std::vector<EntityId>& entry, Rng* rng,
                const std::function<bool(EntityId)>& is_known,
                std::vector<EntityId>* pool) const {
    pool->clear();
    const uint64_t num_entities =
        static_cast<uint64_t>(model_->num_entities());
    const bool filter = filter_index_ != nullptr;
    int true_admissions = 0;
    auto draw_fresh = [&]() {
      EntityId e = static_cast<EntityId>(UniformInt(rng, num_entities));
      if (filter) {
        bool known = is_known(e);
        for (int retry = 0; retry < 10 && known; ++retry) {
          e = static_cast<EntityId>(UniformInt(rng, num_entities));
          known = is_known(e);
        }
        if (known) ++true_admissions;
      }
      return e;
    };
    for (EntityId e : entry) {
      pool->push_back(filter && is_known(e) ? draw_fresh() : e);
    }
    for (int i = 0; i < n2_; ++i) pool->push_back(draw_fresh());
    return true_admissions;
  }

  int Update(std::vector<EntityId>* entry, Rng* rng,
             const std::vector<double>& scores,
             const std::vector<EntityId>& pool) const {
    const int n1 = static_cast<int>(entry->size());
    std::vector<int> picked;
    if (strategy_ == CacheUpdateStrategy::kImportanceSampling) {
      picked = oracle::GumbelTopK(scores, n1, rng);
    } else {
      const std::vector<double> flat(scores.size(), 0.0);
      picked = oracle::GumbelTopK(flat, n1, rng);
    }
    const std::unordered_set<EntityId> before(entry->begin(), entry->end());
    int changed = 0;
    for (int i = 0; i < n1; ++i) {
      const EntityId e = pool[picked[i]];
      if (before.count(e) == 0) ++changed;
      (*entry)[i] = e;
    }
    return changed;
  }

  int ApplyTopK(std::vector<EntityId>* entry,
                const std::vector<TopKEntry>& picked,
                const std::vector<EntityId>& pool) const {
    const std::unordered_set<EntityId> before(entry->begin(), entry->end());
    int changed = 0;
    for (size_t i = 0; i < entry->size(); ++i) {
      const EntityId e = pool[picked[i].index];
      if (before.count(e) == 0) ++changed;
      (*entry)[i] = e;
    }
    return changed;
  }

  const KgeModel* model_;
  CacheUpdateStrategy strategy_;
  int n2_;
  const KgIndex* filter_index_;
};

/// The cache select: same interface and results as CacheSelector.
class CacheSelector {
 public:
  CacheSelector(const KgeModel* model, CacheSelectStrategy strategy)
      : model_(model), strategy_(strategy) {}

  EntityId SelectHead(const std::vector<EntityId>& entry, RelationId r,
                      EntityId t, Rng* rng) const {
    std::vector<double> scores;
    if (strategy_ != CacheSelectStrategy::kUniform) {
      model_->ScoreHeadCandidates(r, t, entry, &scores);
    }
    return Pick(entry, scores, rng);
  }

  EntityId SelectTail(const std::vector<EntityId>& entry, EntityId h,
                      RelationId r, Rng* rng) const {
    std::vector<double> scores;
    if (strategy_ != CacheSelectStrategy::kUniform) {
      model_->ScoreTailCandidates(h, r, entry, &scores);
    }
    return Pick(entry, scores, rng);
  }

 private:
  EntityId Pick(const std::vector<EntityId>& entry,
                const std::vector<double>& scores, Rng* rng) const {
    switch (strategy_) {
      case CacheSelectStrategy::kUniform:
        return entry[UniformInt(rng, static_cast<uint64_t>(entry.size()))];
      case CacheSelectStrategy::kImportanceSampling: {
        std::vector<double> probs(scores);
        SoftmaxInPlace(&probs);
        return entry[rng->Categorical(probs)];
      }
      case CacheSelectStrategy::kTop: {
        const double best = *std::max_element(scores.begin(), scores.end());
        size_t chosen = 0;
        uint64_t num_best = 0;
        for (size_t i = 0; i < scores.size(); ++i) {
          if (scores[i] != best) continue;
          if (++num_best == 1 || UniformInt(rng, num_best) == 0) chosen = i;
        }
        return entry[chosen];
      }
    }
    return entry[0];
  }

  const KgeModel* model_;
  CacheSelectStrategy strategy_;
};

}  // namespace oracle
}  // namespace nsc

#endif  // NSCACHING_TESTS_CORE_REFRESH_ORACLE_H_
