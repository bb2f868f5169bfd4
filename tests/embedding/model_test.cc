#include "embedding/model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "util/simd.h"

namespace nsc {
namespace {

KgeModel MakeModel(const std::string& scorer_name, int entities = 10,
                   int relations = 3, int dim = 8, uint64_t seed = 1,
                   TableLayout layout = TableLayout::kPadded) {
  KgeModel model(entities, relations, dim, MakeScoringFunction(scorer_name),
                 layout);
  Rng rng(seed);
  model.InitXavier(&rng);
  return model;
}

// Runs `body(forced_scalar)` on the native dispatch path, then again
// forced-scalar.
template <typename Fn>
void ForEachDispatchPath(Fn&& body) {
  body(false);
  simd::ScopedForcePath force(simd::Path::kScalar);
  body(true);
}

TEST(KgeModelTest, TableShapesFollowScorerWidths) {
  const KgeModel transe = MakeModel("transe");
  EXPECT_EQ(transe.entity_table().width(), 8);
  EXPECT_EQ(transe.relation_table().width(), 8);

  const KgeModel transd = MakeModel("transd");
  EXPECT_EQ(transd.entity_table().width(), 16);
  EXPECT_EQ(transd.relation_table().width(), 16);

  const KgeModel transh = MakeModel("transh");
  EXPECT_EQ(transh.entity_table().width(), 8);
  EXPECT_EQ(transh.relation_table().width(), 16);

  const KgeModel rescal = MakeModel("rescal");
  EXPECT_EQ(rescal.relation_table().width(), 64);
}

TEST(KgeModelTest, ParameterCountMatchesTableI) {
  // TransE: (|E| + |R|) * d floats.
  const KgeModel model = MakeModel("transe", 100, 7, 16);
  EXPECT_EQ(model.num_parameters(), (100u + 7u) * 16u);
}

TEST(KgeModelTest, ScoreConsistentWithScorer) {
  const KgeModel model = MakeModel("distmult");
  const Triple x{2, 1, 5};
  const double direct = model.scorer().Score(model.entity_table().Row(2),
                                             model.relation_table().Row(1),
                                             model.entity_table().Row(5), 8);
  EXPECT_DOUBLE_EQ(model.Score(x), direct);
  EXPECT_DOUBLE_EQ(model.Score(2, 1, 5), direct);
}

TEST(KgeModelTest, CandidateScoringMatchesPointwise) {
  const KgeModel model = MakeModel("complex");
  const std::vector<EntityId> candidates = {0, 3, 7, 9};
  std::vector<double> head_scores, tail_scores;
  model.ScoreHeadCandidates(2, 4, candidates, &head_scores);
  model.ScoreTailCandidates(1, 0, candidates, &tail_scores);
  ASSERT_EQ(head_scores.size(), 4u);
  for (size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_DOUBLE_EQ(head_scores[i], model.Score(candidates[i], 2, 4));
    EXPECT_DOUBLE_EQ(tail_scores[i], model.Score(1, 0, candidates[i]));
  }
}

TEST(KgeModelTest, CloneIsDeepCopy) {
  KgeModel model = MakeModel("transe");
  KgeModel copy = model.Clone();
  EXPECT_DOUBLE_EQ(copy.Score(0, 0, 1), model.Score(0, 0, 1));
  model.entity_table().Row(0)[0] += 1.0f;
  EXPECT_NE(copy.Score(0, 0, 1), model.Score(0, 0, 1));
}

TEST(KgeModelTest, ClonePreservesLayoutAndContents) {
  for (const TableLayout layout :
       {TableLayout::kPadded, TableLayout::kCompact}) {
    const KgeModel model = MakeModel("transe", 100, 5, 10, 47, layout);
    const KgeModel clone = model.Clone();
    EXPECT_EQ(clone.entity_table().stride(), model.entity_table().stride());
    EXPECT_EQ(clone.relation_table().stride(),
              model.relation_table().stride());
    EXPECT_EQ(clone.entity_table().LogicalCopy(),
              model.entity_table().LogicalCopy());
    EXPECT_EQ(clone.relation_table().LogicalCopy(),
              model.relation_table().LogicalCopy());
  }
}

TEST(KgeModelTest, AdoptingConstructorIsZeroCopy) {
  EmbeddingTable entities(10, 6, simd::kPadLanes);
  for (int32_t r = 0; r < entities.rows(); ++r) {
    for (int c = 0; c < entities.width(); ++c) {
      entities.Row(r)[c] = static_cast<float>(r) * 131.0f + c * 0.25f;
    }
  }
  const float* base = entities.Row(0);
  const int stride = entities.stride();
  const KgeModel model(6, MakeScoringFunction("transe"), std::move(entities),
                       EmbeddingTable(3, 6, simd::kPadLanes));
  for (int32_t r = 0; r < model.num_entities(); ++r) {
    EXPECT_EQ(model.entity_table().Row(r),
              base + static_cast<std::size_t>(r) * stride);
  }
}

TEST(KgeModelTest, XavierInitStreamIndependentOfLayout) {
  // dim 7: ComplEx rows are 14 floats wide, so the padded stride differs.
  const KgeModel padded =
      MakeModel("complex", 100, 5, 7, 11, TableLayout::kPadded);
  const KgeModel compact =
      MakeModel("complex", 100, 5, 7, 11, TableLayout::kCompact);
  EXPECT_TRUE(padded.entity_table().padded());
  EXPECT_FALSE(compact.entity_table().padded());
  EXPECT_EQ(padded.entity_table().LogicalCopy(),
            compact.entity_table().LogicalCopy());
  EXPECT_EQ(padded.relation_table().LogicalCopy(),
            compact.relation_table().LogicalCopy());
}

TEST(KgeModelTest, RangeSweepsMatchFullSweepAcrossLayouts) {
  // Per-candidate scores are range- and stride-independent: a sub-range
  // sweep reproduces the matching entries of the full sweep bit for bit,
  // and a compact table sweeps to the same bits as a padded one.
  const int32_t kEntities = 150;
  for (const std::string& scorer : {std::string("transe"),
                                    std::string("complex")}) {
    ForEachDispatchPath([&](bool forced_scalar) {
      const char* path = forced_scalar ? "scalar" : "native";
      const KgeModel padded =
          MakeModel(scorer, kEntities, 6, 10, 23, TableLayout::kPadded);
      const KgeModel compact =
          MakeModel(scorer, kEntities, 6, 10, 23, TableLayout::kCompact);
      std::vector<double> heads(kEntities);
      std::vector<double> tails(kEntities);
      padded.ScoreAllHeads(2, 7, heads.data());
      padded.ScoreAllTails(3, 4, tails.data());
      std::vector<double> got(kEntities);
      compact.ScoreAllHeads(2, 7, got.data());
      EXPECT_EQ(got, heads) << scorer << " " << path;
      compact.ScoreAllTails(3, 4, got.data());
      EXPECT_EQ(got, tails) << scorer << " " << path;

      Rng rng(29);
      for (int probe = 0; probe < 12; ++probe) {
        const std::size_t first =
            static_cast<std::size_t>(rng.UniformInt(kEntities));
        const std::size_t count = static_cast<std::size_t>(
            rng.UniformInt(kEntities - static_cast<uint64_t>(first) + 1));
        for (const KgeModel* model : {&padded, &compact}) {
          std::vector<double> range(count, -1.0);
          model->ScoreHeadRange(2, 7, first, count, range.data());
          for (std::size_t i = 0; i < count; ++i) {
            ASSERT_EQ(range[i], heads[first + i])
                << scorer << " " << path << " first=" << first;
          }
          model->ScoreTailRange(3, 4, first, count, range.data());
          for (std::size_t i = 0; i < count; ++i) {
            ASSERT_EQ(range[i], tails[first + i])
                << scorer << " " << path << " first=" << first;
          }
        }
      }
    });
  }
}

TEST(KgeModelTest, CandidateGatherMatchesPointerPath) {
  // SIMD scorers score a candidate list by gathering the rows into one
  // slab and sweeping it; the pointer-array ScoreBatch is the reference.
  // Bit-identical on the forced-scalar path, reduction-order tolerant
  // (relative 1e-12) on the native one; the gather is layout-independent
  // on both.
  const int32_t kEntities = 150;
  Rng rng(37);
  std::vector<EntityId> candidates;
  for (int i = 0; i < 40; ++i) {
    candidates.push_back(static_cast<EntityId>(rng.UniformInt(kEntities)));
  }
  ForEachDispatchPath([&](bool exact) {
    const char* path = exact ? "scalar" : "native";
    const KgeModel padded =
        MakeModel("transe", kEntities, 6, 10, 41, TableLayout::kPadded);
    const KgeModel compact =
        MakeModel("transe", kEntities, 6, 10, 41, TableLayout::kCompact);
    ASSERT_TRUE(padded.scorer().simd_accelerated());
    std::vector<double> heads, tails;
    padded.ScoreHeadCandidates(1, 9, candidates, &heads);
    padded.ScoreTailCandidates(4, 2, candidates, &tails);
    std::vector<Triple> head_triples, tail_triples;
    for (const EntityId c : candidates) {
      head_triples.push_back({c, 1, 9});
      tail_triples.push_back({4, 2, c});
    }
    std::vector<double> want_heads, want_tails;
    padded.ScoreBatch(head_triples, &want_heads);
    padded.ScoreBatch(tail_triples, &want_tails);
    ASSERT_EQ(heads.size(), candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (exact) {
        EXPECT_EQ(heads[i], want_heads[i]) << path << " i=" << i;
        EXPECT_EQ(tails[i], want_tails[i]) << path << " i=" << i;
      } else {
        EXPECT_NEAR(heads[i], want_heads[i],
                    1e-12 * (1.0 + std::fabs(want_heads[i])))
            << path << " i=" << i;
        EXPECT_NEAR(tails[i], want_tails[i],
                    1e-12 * (1.0 + std::fabs(want_tails[i])))
            << path << " i=" << i;
      }
    }
    std::vector<double> got;
    compact.ScoreHeadCandidates(1, 9, candidates, &got);
    EXPECT_EQ(got, heads) << path;
    compact.ScoreTailCandidates(4, 2, candidates, &got);
    EXPECT_EQ(got, tails) << path;
  });
}

TEST(KgeModelTest, ProjectEntityEnforcesConstraint) {
  KgeModel model = MakeModel("transe");
  float* row = model.entity_table().Row(3);
  for (int i = 0; i < 8; ++i) row[i] = 10.0f;
  model.ProjectEntity(3);
  EXPECT_LE(model.entity_table().RowNorm(3, 8), 1.0f + 1e-5);
}

TEST(KgeModelTest, SemanticMatchingHasNoEntityConstraint) {
  KgeModel model = MakeModel("distmult");
  float* row = model.entity_table().Row(3);
  row[0] = 10.0f;
  model.ProjectEntity(3);
  EXPECT_FLOAT_EQ(row[0], 10.0f);  // Unconstrained family.
}

}  // namespace
}  // namespace nsc
