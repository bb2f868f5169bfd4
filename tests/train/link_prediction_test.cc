#include "train/link_prediction.h"

#include <gtest/gtest.h>

#include "embedding/scoring_function.h"
#include "link_prediction_oracle.h"

namespace nsc {
namespace {

// A hand-built DistMult world where scores are fully controlled:
// entity e = (v_e, 0, ...), relation = (1, 0, ...) -> f(h, r, t) = v_h*v_t.
KgeModel MakeControlledModel(const std::vector<float>& values) {
  KgeModel model(static_cast<int32_t>(values.size()), 1, 4,
                 MakeScoringFunction("distmult"));
  for (size_t e = 0; e < values.size(); ++e) {
    model.entity_table().Row(static_cast<int32_t>(e))[0] = values[e];
  }
  model.relation_table().Row(0)[0] = 1.0f;
  return model;
}

TEST(LinkPredictionTest, PerfectModelRanksFirst) {
  // Entities 0 and 1 have value 2; everyone else value -1. Test triple
  // (0, 0, 1) scores 4; corrupting either side scores -2 or 1 -> rank 1
  // on both sides (entity with value -1*-1=1 < 4... careful: corrupting
  // tail with entity of value -1 gives 2*-1 = -2 < 4; corrupting with the
  // *other* high entity (0,0,0) is skipped as self? No: head corruption
  // replaces h, candidate h=1 gives v_1*v_1=4 = score, not greater.)
  std::vector<float> values = {2.0f, 2.0f, -1.0f, -1.0f, -1.0f};
  KgeModel model = MakeControlledModel(values);
  TripleStore eval(5, 1);
  eval.Add({0, 0, 1});
  const KgIndex filter(eval);
  LinkPredictionOptions opts;
  opts.num_threads = 2;
  const RankingMetrics m = EvaluateLinkPrediction(model, eval, filter, opts);
  EXPECT_EQ(m.count(), 2u);  // Head + tail side.
  EXPECT_DOUBLE_EQ(m.mrr(), 1.0);
  EXPECT_DOUBLE_EQ(m.mr(), 1.0);
  EXPECT_DOUBLE_EQ(m.hits_at(1), 100.0);
}

TEST(LinkPredictionTest, RankCountsStrictlyGreaterScores) {
  // v = [1, 2, 3, 4]; test triple (0, 0, 1): score 1*2 = 2.
  // Tail corruptions (e != 1): t=0 -> 1, t=2 -> 3, t=3 -> 4; two greater
  // -> tail rank 3. Head corruptions (e != 0): h=1 -> 4, h=2 -> 6,
  // h=3 -> 8; three greater -> head rank 4. MR = 3.5.
  KgeModel model = MakeControlledModel({1.0f, 2.0f, 3.0f, 4.0f});
  TripleStore eval(4, 1);
  eval.Add({0, 0, 1});
  const KgIndex filter(eval);
  const RankingMetrics m = EvaluateLinkPrediction(model, eval, filter);
  EXPECT_DOUBLE_EQ(m.mr(), 3.5);
}

TEST(LinkPredictionTest, FilteredSettingSkipsKnownTriples) {
  // Same setup, but (0, 0, 3) and (0, 0, 2) are known true triples: in the
  // filtered setting the tail rank of (0, 0, 1) improves to 1.
  KgeModel model = MakeControlledModel({1.0f, 2.0f, 3.0f, 4.0f});
  TripleStore eval(4, 1);
  eval.Add({0, 0, 1});
  TripleStore known(4, 1);
  known.Add({0, 0, 1});
  known.Add({0, 0, 2});
  known.Add({0, 0, 3});
  const KgIndex filter(known);

  LinkPredictionOptions filtered;
  filtered.filtered = true;
  const RankingMetrics mf = EvaluateLinkPrediction(model, eval, filter, filtered);

  LinkPredictionOptions raw;
  raw.filtered = false;
  const RankingMetrics mr_ = EvaluateLinkPrediction(model, eval, filter, raw);

  // Tail side: raw rank 3 (t=2 scores 3, t=3 scores 4 beat 2; t=0 scores 1
  // does not); filtered rank 1 (both beaters are known triples). Head side
  // in both settings: h=1 -> 4, h=2 -> 6, h=3 -> 8 all beat 2 -> rank 4.
  EXPECT_LT(mf.mr(), mr_.mr());
  EXPECT_DOUBLE_EQ(mf.mr(), 2.5);   // (1 + 4) / 2.
  EXPECT_DOUBLE_EQ(mr_.mr(), 3.5);  // (3 + 4) / 2.
}

TEST(LinkPredictionTest, MaxTriplesSubsamples) {
  KgeModel model = MakeControlledModel({1.0f, 2.0f, 3.0f, 4.0f});
  TripleStore eval(4, 1);
  eval.Add({0, 0, 1});
  eval.Add({1, 0, 2});
  eval.Add({2, 0, 3});
  const KgIndex filter(eval);
  LinkPredictionOptions opts;
  opts.max_triples = 2;
  const RankingMetrics m = EvaluateLinkPrediction(model, eval, filter, opts);
  EXPECT_EQ(m.count(), 4u);  // 2 triples × 2 sides.
}

TEST(LinkPredictionTest, OracleMatchesControlledRanks) {
  // The per-candidate oracle the parity test pins the evaluator against
  // must itself get the hand-computed ranks right (same setup as
  // RankCountsStrictlyGreaterScores).
  KgeModel model = MakeControlledModel({1.0f, 2.0f, 3.0f, 4.0f});
  TripleStore eval(4, 1);
  eval.Add({0, 0, 1});
  const KgIndex filter(eval);
  const RankingMetrics m = oracle::EvaluateLinkPrediction(model, eval, filter);
  EXPECT_DOUBLE_EQ(m.mr(), 3.5);
}

TEST(LinkPredictionTest, TieBreakOnConstantScorer) {
  // Every entity has the same value, so every candidate score ties with
  // the true score: the optimistic convention reports a (degenerate)
  // perfect MRR of 1.0, while kMean counts each tie as half a rank.
  // Head side: 4 candidates (e != h), all tied -> rank 1 + 4/2 = 3; the
  // tail side is symmetric. The evaluator and the per-candidate oracle
  // must agree in both modes.
  KgeModel model = MakeControlledModel({2.0f, 2.0f, 2.0f, 2.0f, 2.0f});
  TripleStore eval(5, 1);
  eval.Add({0, 0, 1});
  const KgIndex filter(eval);
  for (bool use_oracle : {false, true}) {
    const auto evaluate = [&](const LinkPredictionOptions& opts) {
      return use_oracle
                 ? oracle::EvaluateLinkPrediction(model, eval, filter, opts)
                 : EvaluateLinkPrediction(model, eval, filter, opts);
    };
    LinkPredictionOptions optimistic;
    optimistic.tie_break = TieBreak::kOptimistic;
    const RankingMetrics mo = evaluate(optimistic);
    EXPECT_DOUBLE_EQ(mo.mrr(), 1.0) << "oracle=" << use_oracle;
    EXPECT_DOUBLE_EQ(mo.mr(), 1.0) << "oracle=" << use_oracle;

    LinkPredictionOptions mean;
    mean.tie_break = TieBreak::kMean;
    const RankingMetrics mm = evaluate(mean);
    EXPECT_DOUBLE_EQ(mm.mr(), 3.0) << "oracle=" << use_oracle;
    EXPECT_DOUBLE_EQ(mm.mrr(), 1.0 / 3.0) << "oracle=" << use_oracle;
    EXPECT_DOUBLE_EQ(mm.hits_at(3), 100.0) << "oracle=" << use_oracle;
    EXPECT_DOUBLE_EQ(mm.hits_at(2), 0.0) << "oracle=" << use_oracle;
  }
}

TEST(LinkPredictionTest, MeanTieBreakStillRanksDistinctScores) {
  // No ties anywhere -> kMean must be identical to kOptimistic.
  KgeModel model = MakeControlledModel({1.0f, 2.0f, 3.0f, 4.0f});
  TripleStore eval(4, 1);
  eval.Add({0, 0, 1});
  const KgIndex filter(eval);
  LinkPredictionOptions mean;
  mean.tie_break = TieBreak::kMean;
  const RankingMetrics m = EvaluateLinkPrediction(model, eval, filter, mean);
  EXPECT_DOUBLE_EQ(m.mr(), 3.5);
}

TEST(LinkPredictionTest, DeterministicAcrossThreadCounts) {
  // The metric is an exact computation; thread count must not change it.
  std::vector<float> values(30);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<float>((i * 37 % 13)) * 0.25f;
  }
  KgeModel model = MakeControlledModel(values);
  TripleStore eval(30, 1);
  for (EntityId h = 0; h < 10; ++h) {
    eval.Add({h, 0, static_cast<EntityId>(29 - h)});
  }
  const KgIndex filter(eval);
  LinkPredictionOptions one;
  one.num_threads = 1;
  LinkPredictionOptions many;
  many.num_threads = 8;
  const RankingMetrics m1 = EvaluateLinkPrediction(model, eval, filter, one);
  const RankingMetrics m8 = EvaluateLinkPrediction(model, eval, filter, many);
  EXPECT_DOUBLE_EQ(m1.mrr(), m8.mrr());
  EXPECT_DOUBLE_EQ(m1.mr(), m8.mr());
  EXPECT_DOUBLE_EQ(m1.hits_at(10), m8.hits_at(10));
}

}  // namespace
}  // namespace nsc
