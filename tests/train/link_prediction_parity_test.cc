// Pins the batched 1-vs-all evaluator to the per-candidate reference in
// link_prediction_oracle.h: identical ranks (hence bit-identical
// MRR/MR/Hits@k) across every registered scorer, filtered and raw
// settings, padded and compact table layouts, serial and threaded
// evaluation, both tie policies, and both SIMD dispatch paths. Also pins
// the ScoreAllHeads/ScoreAllTails
// sweep itself against per-candidate Score() — exact under forced
// scalar, reduction-order-tolerant under the native path — and checks
// that concurrent sweep and top-K readers of one model need no race
// suppressions (this binary runs under TSan with none).
#include "train/link_prediction.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "embedding/scoring_function.h"
#include "kg/kg_index.h"
#include "kg/triple_store.h"
#include "link_prediction_oracle.h"
#include "util/rng.h"
#include "util/simd.h"

namespace nsc {
namespace {

constexpr int32_t kEntities = 48;
constexpr int32_t kRelations = 4;
constexpr int kDim = 11;  // Full SIMD lanes plus a tail on every ISA.
constexpr size_t kEvalTriples = 16;

KgeModel MakeRandomModel(const std::string& scorer, TableLayout layout,
                         uint64_t seed) {
  KgeModel model(kEntities, kRelations, kDim, MakeScoringFunction(scorer),
                 layout);
  Rng rng(seed);
  model.InitXavier(&rng);
  return model;
}

/// A small random KG whose eval subset overlaps shared (h, r) / (r, t)
/// keys, so the filtered setting has non-trivial candidate lists to mask.
TripleStore MakeTrainStore() {
  TripleStore store(kEntities, kRelations);
  Rng rng(77);
  for (int i = 0; i < 120; ++i) {
    const EntityId h = static_cast<EntityId>(rng.UniformInt(kEntities));
    const RelationId r = static_cast<RelationId>(rng.UniformInt(kRelations));
    const EntityId t = static_cast<EntityId>(rng.UniformInt(kEntities));
    store.Add({h, r, t});
  }
  return store;
}

TripleStore MakeEvalStore(const TripleStore& train) {
  TripleStore eval(kEntities, kRelations);
  for (size_t i = 0; i < kEvalTriples; ++i) eval.Add(train[i * 3]);
  return eval;
}

void ExpectMetricsIdentical(const RankingMetrics& got,
                            const RankingMetrics& want) {
  EXPECT_EQ(got.count(), want.count());
  EXPECT_EQ(got.mrr(), want.mrr());
  EXPECT_EQ(got.mr(), want.mr());
  for (int k : {1, 3, 10}) {
    EXPECT_EQ(got.hits_at(k), want.hits_at(k)) << "k=" << k;
  }
}

std::vector<simd::Path> DispatchPaths() {
  std::vector<simd::Path> paths = {simd::Path::kScalar};
  if (simd::BestAvailablePath() != simd::Path::kScalar) {
    paths.push_back(simd::BestAvailablePath());
  }
  return paths;
}

TEST(LinkPredictionParityTest, BatchedMatchesOracleAcrossMatrix) {
  const TripleStore train = MakeTrainStore();
  const TripleStore eval = MakeEvalStore(train);
  const KgIndex filter(train);

  for (simd::Path path : DispatchPaths()) {
    simd::ScopedForcePath force(path);
    for (const std::string& scorer : ListScoringFunctions()) {
      for (TableLayout layout : {TableLayout::kPadded, TableLayout::kCompact}) {
        const KgeModel model = MakeRandomModel(scorer, layout, 19);
        for (bool filtered : {true, false}) {
          for (TieBreak tie : {TieBreak::kOptimistic, TieBreak::kMean}) {
            for (int threads : {1, 3}) {
              SCOPED_TRACE(std::string(simd::PathName(path)) + "/" + scorer +
                           (layout == TableLayout::kPadded ? "/padded"
                                                           : "/compact") +
                           (filtered ? "/filtered" : "/raw") +
                           (tie == TieBreak::kMean ? "/mean" : "/optimistic") +
                           "/t=" + std::to_string(threads));
              LinkPredictionOptions opts;
              opts.filtered = filtered;
              opts.tie_break = tie;
              opts.num_threads = threads;
              ExpectMetricsIdentical(
                  EvaluateLinkPrediction(model, eval, filter, opts),
                  oracle::EvaluateLinkPrediction(model, eval, filter, opts));
            }
          }
        }
      }
    }
  }
}

TEST(LinkPredictionParityTest, BatchedIsLayoutInvariant) {
  // The sweep must produce the same metrics whether the entity rows are
  // SIMD-padded or compact (the row-aware initializers make the logical
  // contents identical across layouts).
  const TripleStore train = MakeTrainStore();
  const TripleStore eval = MakeEvalStore(train);
  const KgIndex filter(train);
  for (simd::Path path : DispatchPaths()) {
    simd::ScopedForcePath force(path);
    for (const std::string& scorer : ListScoringFunctions()) {
      SCOPED_TRACE(std::string(simd::PathName(path)) + "/" + scorer);
      const KgeModel padded =
          MakeRandomModel(scorer, TableLayout::kPadded, 23);
      const KgeModel compact =
          MakeRandomModel(scorer, TableLayout::kCompact, 23);
      ExpectMetricsIdentical(EvaluateLinkPrediction(padded, eval, filter),
                             EvaluateLinkPrediction(compact, eval, filter));
    }
  }
}

TEST(LinkPredictionParityTest, HitsOnlyMatchesFullEvaluatorHitsCounters) {
  // The Hits@K-only early-exit mode promises: count() and hits_at(j) for
  // j <= hits_k are bit-identical to the full batched evaluator's, under
  // both tie policies and on both dispatch paths. (MRR/MR are junk by
  // contract — early-exited queries record rank hits_k + 1 — so they are
  // deliberately NOT compared.) kEntities spans only a fraction of one
  // 256-candidate tile, so a second model with far more entities
  // exercises multi-tile queries and real early exits below.
  const TripleStore train = MakeTrainStore();
  const TripleStore eval = MakeEvalStore(train);
  const KgIndex filter(train);
  for (simd::Path path : DispatchPaths()) {
    simd::ScopedForcePath force(path);
    for (const std::string& scorer : ListScoringFunctions()) {
      for (bool filtered : {true, false}) {
        for (TieBreak tie : {TieBreak::kOptimistic, TieBreak::kMean}) {
          for (int hits_k : {1, 3, 10}) {
            for (int threads : {1, 3}) {
              SCOPED_TRACE(std::string(simd::PathName(path)) + "/" + scorer +
                           (filtered ? "/filtered" : "/raw") +
                           (tie == TieBreak::kMean ? "/mean" : "/optimistic") +
                           "/hits_k=" + std::to_string(hits_k) +
                           "/t=" + std::to_string(threads));
              const KgeModel model =
                  MakeRandomModel(scorer, TableLayout::kPadded, 19);
              LinkPredictionOptions full_opts;
              full_opts.filtered = filtered;
              full_opts.tie_break = tie;
              full_opts.num_threads = threads;
              LinkPredictionOptions hits_opts = full_opts;
              hits_opts.hits_only = true;
              hits_opts.hits_k = hits_k;
              const RankingMetrics full =
                  EvaluateLinkPrediction(model, eval, filter, full_opts);
              const RankingMetrics hits =
                  EvaluateLinkPrediction(model, eval, filter, hits_opts);
              EXPECT_EQ(hits.count(), full.count());
              for (int j = 1; j <= hits_k; ++j) {
                EXPECT_EQ(hits.hits_at(j), full.hits_at(j)) << "j=" << j;
              }
            }
          }
        }
      }
    }
  }
}

TEST(LinkPredictionParityTest, HitsOnlyExactAcrossTileBoundaries) {
  // 1000 entities = 3 full tiles + a 232-entity tail per query side:
  // early exits fire mid-range for most queries, the true entity lands in
  // different tiles, and filtered corrections straddle tile boundaries.
  constexpr int32_t kBigEntities = 1000;
  TripleStore train(kBigEntities, kRelations);
  Rng rng(501);
  for (int i = 0; i < 400; ++i) {
    train.Add({static_cast<EntityId>(rng.UniformInt(kBigEntities)),
               static_cast<RelationId>(rng.UniformInt(kRelations)),
               static_cast<EntityId>(rng.UniformInt(kBigEntities))});
  }
  TripleStore eval(kBigEntities, kRelations);
  for (size_t i = 0; i < kEvalTriples; ++i) eval.Add(train[i * 7]);
  const KgIndex filter(train);
  KgeModel model(kBigEntities, kRelations, kDim,
                 MakeScoringFunction("transe"), TableLayout::kPadded);
  Rng init_rng(41);
  model.InitXavier(&init_rng);
  for (simd::Path path : DispatchPaths()) {
    simd::ScopedForcePath force(path);
    for (TieBreak tie : {TieBreak::kOptimistic, TieBreak::kMean}) {
      SCOPED_TRACE(std::string(simd::PathName(path)) +
                   (tie == TieBreak::kMean ? "/mean" : "/optimistic"));
      LinkPredictionOptions full_opts;
      full_opts.tie_break = tie;
      full_opts.num_threads = 2;
      LinkPredictionOptions hits_opts = full_opts;
      hits_opts.hits_only = true;
      hits_opts.hits_k = 10;
      const RankingMetrics full =
          EvaluateLinkPrediction(model, eval, filter, full_opts);
      const RankingMetrics hits =
          EvaluateLinkPrediction(model, eval, filter, hits_opts);
      EXPECT_EQ(hits.count(), full.count());
      for (int j = 1; j <= 10; ++j) {
        EXPECT_EQ(hits.hits_at(j), full.hits_at(j)) << "j=" << j;
      }
    }
  }
}

TEST(LinkPredictionParityTest, SweepMatchesPerCandidateScores) {
  // ScoreAllHeads/ScoreAllTails against one scalar Score() per entity:
  // bit-identical on the forced-scalar path, reduction-order tolerant
  // (relative 1e-12) on the native path.
  for (simd::Path path : DispatchPaths()) {
    simd::ScopedForcePath force(path);
    const bool exact = path == simd::Path::kScalar;
    for (const std::string& scorer : ListScoringFunctions()) {
      SCOPED_TRACE(std::string(simd::PathName(path)) + "/" + scorer);
      const KgeModel model =
          MakeRandomModel(scorer, TableLayout::kPadded, 31);
      std::vector<double> sweep(kEntities);
      model.ScoreAllHeads(2, 7, sweep.data());
      for (EntityId e = 0; e < kEntities; ++e) {
        const double ref = model.Score(e, 2, 7);
        if (exact) {
          EXPECT_EQ(sweep[e], ref) << "head sweep, e=" << e;
        } else {
          EXPECT_NEAR(sweep[e], ref, 1e-12 * (1.0 + std::fabs(ref)))
              << "head sweep, e=" << e;
        }
      }
      model.ScoreAllTails(5, 3, sweep.data());
      for (EntityId e = 0; e < kEntities; ++e) {
        const double ref = model.Score(5, 3, e);
        if (exact) {
          EXPECT_EQ(sweep[e], ref) << "tail sweep, e=" << e;
        } else {
          EXPECT_NEAR(sweep[e], ref, 1e-12 * (1.0 + std::fabs(ref)))
              << "tail sweep, e=" << e;
        }
      }
    }
  }
}

TEST(LinkPredictionParityTest, ConcurrentReadersNeedNoSuppressions) {
  // With no writer, the 1-vs-all sweep and the fused top-K are const
  // reads of one table plus thread-local scratch: several threads may
  // run them at once with no race at all.
  const KgeModel model = MakeRandomModel("distmult", TableLayout::kPadded, 7);
  constexpr int kThreads = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      std::vector<double> sweep(model.num_entities());
      std::vector<TopKEntry> topk;
      for (int i = 0; i < 200; ++i) {
        const auto r = static_cast<RelationId>((t + i) % kRelations);
        const auto e = static_cast<EntityId>((7 * t + i) % kEntities);
        model.ScoreAllHeads(r, e, sweep.data());
        model.TopKTails(e, r, 10, &topk);
        if (topk.size() != 10 || !std::isfinite(sweep[0])) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace nsc
