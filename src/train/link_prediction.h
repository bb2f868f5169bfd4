// Filtered link-prediction evaluation (§IV-A2/3): for every test triple
// (h, r, t), the true head is ranked against all corrupted heads
// (ē, r, t), and the true tail against all (h, r, ē). In the "Filtered"
// setting, corruptions that are themselves known triples (anywhere in
// train ∪ valid ∪ test) are skipped so a model is not penalised for
// ranking another true fact highly. Evaluation parallelises over test
// triples with a thread pool.
//
// Per query, one KgeModel::ScoreAllHeads/ScoreAllTails sweep fills a
// per-worker score buffer over every entity, the rank is a vectorizable
// count of scores above the true score, and the filtered setting masks
// the per-query known-true candidate lists the KgIndex already stores
// (HeadsOf/TailsOf) — O(|filter|) corrections instead of O(|E|) hash
// probes. The per-candidate reference ranker (one virtual Score() plus
// one Contains() per candidate) lives in
// tests/train/link_prediction_oracle.h, where the parity test pins this
// evaluator against it.
#ifndef NSCACHING_TRAIN_LINK_PREDICTION_H_
#define NSCACHING_TRAIN_LINK_PREDICTION_H_

#include "embedding/model.h"
#include "kg/kg_index.h"
#include "kg/triple_store.h"
#include "train/metrics.h"

namespace nsc {

/// How candidates whose score exactly equals the true triple's score are
/// ranked.
enum class TieBreak {
  /// rank = 1 + #strictly greater — the historical (optimistic)
  /// convention. A degenerate model scoring every triple identically
  /// reports a perfect MRR of 1.0 under this rule.
  kOptimistic,
  /// rank = 1 + #strictly greater + #ties / 2 — each tied candidate
  /// counts half, the expected rank under random tie shuffling. The
  /// all-equal-scores degenerate model reports MRR ≈ 2/|E| instead
  /// of 1.0.
  kMean,
};

/// Evaluation knobs.
struct LinkPredictionOptions {
  /// Skip known-true corruptions (the paper's "Filtered" setting).
  bool filtered = true;
  /// Worker threads; <= 0 picks the hardware default.
  int num_threads = 0;
  /// Evaluate at most this many triples (0 = all) — lets benches trade
  /// precision for speed on the periodic evaluations of Figures 2-5.
  size_t max_triples = 0;
  /// Tie handling; kOptimistic reproduces the historical ranks exactly.
  TieBreak tie_break = TieBreak::kOptimistic;
  /// Hits@K-only early-exit mode: rank work for a query side stops as
  /// soon as `hits_k` candidates provably beat the true score, so a
  /// mid-pack query costs a few kernel tiles instead of a full |E|
  /// sweep — and no per-worker |E| score buffer is ever allocated
  /// (tiles of 256 candidates are scored via the sub-range sweeps and
  /// discarded). Early-exited queries record the junk rank hits_k + 1,
  /// so of the returned metrics ONLY hits_at(j) for j <= hits_k and
  /// count() are meaningful — and those are bit-identical to the full
  /// evaluator's under both tie policies: per-tile filtered corrections
  /// keep the running strictly-greater count an exact lower bound of
  /// the final one, and non-exited queries finish with exact counts.
  bool hits_only = false;
  /// K of the hits_only mode; must be in [1, 10] (the tracked-K range
  /// of RankingMetrics).
  int hits_k = 10;
};

/// Ranks every triple of `eval_set` under `model`. `filter_index` must
/// cover train+valid+test when options.filtered (pass the train-only
/// index for the "raw" setting).
RankingMetrics EvaluateLinkPrediction(const KgeModel& model,
                                      const TripleStore& eval_set,
                                      const KgIndex& filter_index,
                                      const LinkPredictionOptions& options = {});

}  // namespace nsc

#endif  // NSCACHING_TRAIN_LINK_PREDICTION_H_
