#include "core/cache_select.h"

#include <algorithm>

#include "util/logging.h"
#include "util/math.h"

namespace nsc {

std::string CacheSelectStrategyName(CacheSelectStrategy s) {
  switch (s) {
    case CacheSelectStrategy::kUniform:
      return "uniform";
    case CacheSelectStrategy::kImportanceSampling:
      return "is";
    case CacheSelectStrategy::kTop:
      return "top";
  }
  return "?";
}

namespace {

// Per-thread buffers of the score-based select strategies: the entry's
// scores and their softmax. thread_local because selection runs inside
// the Hogwild workers; after warm-up a select allocates nothing.
struct SelectScratch {
  std::vector<double> scores;
  std::vector<double> probs;
};

SelectScratch& Scratch() {
  static thread_local SelectScratch scratch;
  return scratch;
}

}  // namespace

EntityId CacheSelector::Pick(const std::vector<EntityId>& entry,
                             const std::vector<double>& scores,
                             Rng* rng) const {
  CHECK(!entry.empty());
  switch (strategy_) {
    case CacheSelectStrategy::kUniform:
      return entry[rng->UniformInt(static_cast<uint64_t>(entry.size()))];
    case CacheSelectStrategy::kImportanceSampling: {
      std::vector<double>& probs = Scratch().probs;
      probs.assign(scores.begin(), scores.end());
      SoftmaxInPlace(&probs);
      return entry[rng->Categorical(probs)];
    }
    case CacheSelectStrategy::kTop: {
      // Break score ties uniformly at random. Ties are the common case at
      // init (all entries are fresh uniform draws against an untrained
      // model); always taking the first argmax would deterministically
      // favor low cache slots. Single reservoir pass; the Rng is consumed
      // only when a tie exists.
      const double best = *std::max_element(scores.begin(), scores.end());
      size_t chosen = 0;
      uint64_t num_best = 0;
      for (size_t i = 0; i < scores.size(); ++i) {
        if (scores[i] != best) continue;
        // Reservoir over the tied indices; no Rng draw when the argmax is
        // unique, so untied streams stay unchanged.
        if (++num_best == 1 || rng->UniformInt(num_best) == 0) chosen = i;
      }
      return entry[chosen];
    }
  }
  return entry[0];
}

EntityId CacheSelector::SelectHead(const std::vector<EntityId>& entry,
                                   RelationId r, EntityId t, Rng* rng) const {
  std::vector<double>& scores = Scratch().scores;
  if (strategy_ != CacheSelectStrategy::kUniform) {
    model_->ScoreHeadCandidates(r, t, entry, &scores);
  }
  return Pick(entry, scores, rng);
}

EntityId CacheSelector::SelectTail(const std::vector<EntityId>& entry,
                                   EntityId h, RelationId r, Rng* rng) const {
  std::vector<double>& scores = Scratch().scores;
  if (strategy_ != CacheSelectStrategy::kUniform) {
    model_->ScoreTailCandidates(h, r, entry, &scores);
  }
  return Pick(entry, scores, rng);
}

}  // namespace nsc
