// Reference oracle for the filtered link-prediction evaluator.
//
// This is the straightforward per-candidate ranker the production
// evaluator in src/train/link_prediction.cc must reproduce exactly: for
// each query side it walks every entity, skips the true one and (when
// filtered) every known-true corruption through a KgIndex::Contains hash
// probe, scores the candidate with one KgeModel::Score() call, and counts
// the scores strictly above and exactly equal to the true triple's.
// Queries are cut into the same contiguous chunks as the production
// evaluator uses for options.num_threads, and the per-chunk metrics are
// merged in chunk order, so even the floating sums behind MRR and MR
// compare with EXPECT_EQ at every thread count; the chunks run on the
// calling thread. It is kept here, not in src/, because nothing but the
// tests (link_prediction_parity_test.cc, link_prediction_test.cc) runs
// it. options.hits_only is not part of the oracle: the parity test pins
// that mode against the full production evaluator.
#ifndef NSCACHING_TESTS_TRAIN_LINK_PREDICTION_ORACLE_H_
#define NSCACHING_TESTS_TRAIN_LINK_PREDICTION_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "embedding/model.h"
#include "kg/kg_index.h"
#include "kg/triple_store.h"
#include "kg/types.h"
#include "train/link_prediction.h"
#include "train/metrics.h"
#include "util/thread_pool.h"

namespace nsc {
namespace oracle {

/// Rank of the true entity on one side of query `x` under `tie_break`.
inline double RankOneSide(const KgeModel& model, const Triple& x,
                          CorruptionSide side, const KgIndex& filter_index,
                          bool filtered, TieBreak tie_break) {
  const double true_score = model.Score(x);
  int64_t greater = 0;
  int64_t ties = 0;
  Triple corrupted = x;
  for (EntityId e = 0; e < model.num_entities(); ++e) {
    if (side == CorruptionSide::kHead) {
      if (e == x.h) continue;
      corrupted.h = e;
    } else {
      if (e == x.t) continue;
      corrupted.t = e;
    }
    if (filtered && filter_index.Contains(corrupted)) continue;
    const double s = model.Score(corrupted);
    greater += s > true_score;
    ties += s == true_score;
  }
  const double optimistic = static_cast<double>(greater + 1);
  return tie_break == TieBreak::kOptimistic
             ? optimistic
             : optimistic + 0.5 * static_cast<double>(ties);
}

/// EvaluateLinkPrediction's result, computed one candidate at a time.
inline RankingMetrics EvaluateLinkPrediction(
    const KgeModel& model, const TripleStore& eval_set,
    const KgIndex& filter_index, const LinkPredictionOptions& options = {}) {
  const size_t limit = options.max_triples == 0
                           ? eval_set.size()
                           : std::min(options.max_triples, eval_set.size());
  if (limit == 0) return {};
  const int threads =
      options.num_threads > 0 ? options.num_threads : DefaultThreadCount();
  const size_t num_chunks = std::min(static_cast<size_t>(threads), limit);
  const size_t chunk = (limit + num_chunks - 1) / num_chunks;
  RankingMetrics total;
  for (size_t c = 0; c < num_chunks; ++c) {
    const size_t lo = c * chunk;
    const size_t hi = std::min(limit, lo + chunk);
    RankingMetrics local;
    for (size_t i = lo; i < hi; ++i) {
      for (CorruptionSide side :
           {CorruptionSide::kHead, CorruptionSide::kTail}) {
        local.AddRank(RankOneSide(model, eval_set[i], side, filter_index,
                                  options.filtered, options.tie_break));
      }
    }
    total.Merge(local);
  }
  return total;
}

}  // namespace oracle
}  // namespace nsc

#endif  // NSCACHING_TESTS_TRAIN_LINK_PREDICTION_ORACLE_H_
