#include "embedding/embedding_table.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "embedding/initializer.h"
#include "embedding/model.h"
#include "util/rng.h"
#include "util/simd.h"

namespace nsc {
namespace {

TEST(EmbeddingTableTest, ShapeAndZeroInit) {
  EmbeddingTable table(5, 3);
  EXPECT_EQ(table.rows(), 5);
  EXPECT_EQ(table.width(), 3);
  EXPECT_EQ(table.stride(), 3);
  EXPECT_FALSE(table.padded());
  EXPECT_EQ(table.size(), 15u);
  EXPECT_EQ(table.logical_size(), 15u);
  for (float v : table.data()) EXPECT_EQ(v, 0.0f);
}

TEST(EmbeddingTableTest, PaddedStrideRoundsUpToLaneMultiple) {
  EmbeddingTable table(5, 3, simd::kPadLanes);
  EXPECT_EQ(table.width(), 3);
  EXPECT_EQ(table.stride(), simd::kPadLanes);
  EXPECT_TRUE(table.padded());
  EXPECT_EQ(table.size(), 5u * simd::kPadLanes);
  EXPECT_EQ(table.logical_size(), 15u);
  // A width already on the multiple gets no padding.
  EmbeddingTable exact(5, 2 * simd::kPadLanes, simd::kPadLanes);
  EXPECT_EQ(exact.stride(), exact.width());
  EXPECT_FALSE(exact.padded());
}

TEST(EmbeddingTableTest, PaddedRowsAreAlignedAndDisjoint) {
  EmbeddingTable table(7, 3, simd::kPadLanes);
  for (int32_t r = 0; r < 7; ++r) {
    // Every row of a padded table starts on the SIMD/cache alignment
    // boundary (stride is a lane multiple and the base is aligned).
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(table.Row(r)) %
                  (simd::kPadLanes * sizeof(float)),
              0u)
        << "row " << r;
    for (int i = 0; i < 3; ++i) table.Row(r)[i] = r * 10.0f + i;
  }
  // Writes through one row never leak into the next row's logical floats.
  EXPECT_EQ(table.Row(3)[0], 30.0f);
  EXPECT_EQ(table.Row(4)[0], 40.0f);
  EXPECT_EQ(table.Row(3) + table.stride(), table.Row(4));
}

TEST(EmbeddingTableTest, EveryPaddedRowIs64ByteAligned) {
  // The SIMD sweep kernels rely on every row of a padded table starting
  // on simd::kRowAlignment, including tables far longer than one page.
  const EmbeddingTable table(100, 12, simd::kPadLanes);
  for (int32_t r = 0; r < table.rows(); ++r) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(table.Row(r)) %
                  simd::kRowAlignment,
              0u)
        << "row " << r;
  }
}

TEST(EmbeddingTableTest, StrideAsPadLanesReproducesGeometry) {
  // How optimizer moment buffers mirror their parameter table: passing
  // the table's stride as pad_lanes yields the same rows, width and
  // stride, zero-filled.
  for (const int pad : {1, simd::kPadLanes}) {
    EmbeddingTable table(100, 12, pad);
    Rng rng(5);
    UniformInit(&table, -1.0, 1.0, &rng);
    const EmbeddingTable zeros(table.rows(), table.width(), table.stride());
    EXPECT_EQ(zeros.rows(), table.rows());
    EXPECT_EQ(zeros.width(), table.width());
    EXPECT_EQ(zeros.stride(), table.stride()) << "pad " << pad;
    for (const float v : zeros.LogicalCopy()) EXPECT_EQ(v, 0.0f);
  }
}

TEST(EmbeddingTableTest, LogicalCopyIsCompactAndLayoutIndependent) {
  EmbeddingTable padded(6, 5, simd::kPadLanes);
  EmbeddingTable compact(6, 5);
  Rng rng_a(13), rng_b(13);
  UniformInit(&padded, -1.0, 1.0, &rng_a);
  UniformInit(&compact, -1.0, 1.0, &rng_b);
  const std::vector<float> image = padded.LogicalCopy();
  ASSERT_EQ(image.size(), padded.logical_size());
  EXPECT_EQ(image, compact.LogicalCopy());
  EXPECT_EQ(image[2 * 5 + 3], padded.Row(2)[3]);
}

TEST(EmbeddingTableTest, InitializersAreLayoutInvariantAndLeavePaddingZero) {
  EmbeddingTable padded(6, 5, simd::kPadLanes);
  EmbeddingTable compact(6, 5);
  Rng rng_a(77), rng_b(77);
  UniformInit(&padded, -1.0, 1.0, &rng_a);
  UniformInit(&compact, -1.0, 1.0, &rng_b);
  for (int32_t r = 0; r < 6; ++r) {
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(padded.Row(r)[i], compact.Row(r)[i]) << r << "," << i;
    }
    for (int i = 5; i < padded.stride(); ++i) {
      EXPECT_EQ(padded.Row(r)[i], 0.0f) << "padding touched at " << r;
    }
  }
}

TEST(EmbeddingTableTest, RowViewsAreContiguousAndWritable) {
  EmbeddingTable table(3, 4);
  for (int r = 0; r < 3; ++r) {
    float* row = table.Row(r);
    for (int i = 0; i < 4; ++i) row[i] = r * 10.0f + i;
  }
  EXPECT_EQ(table.Row(1)[2], 12.0f);
  EXPECT_EQ(table.data()[1 * 4 + 2], 12.0f);
  // Rows are adjacent in memory.
  EXPECT_EQ(table.Row(0) + 4, table.Row(1));
}

TEST(EmbeddingTableTest, RowNormPrefix) {
  EmbeddingTable table(1, 4);
  float* row = table.Row(0);
  row[0] = 3.0f;
  row[1] = 4.0f;
  row[2] = 100.0f;  // Outside the prefix.
  EXPECT_FLOAT_EQ(table.RowNorm(0, 2), 5.0f);
}

TEST(EmbeddingTableTest, ProjectScalesOnlyWhenOutside) {
  EmbeddingTable table(2, 2);
  float* a = table.Row(0);
  a[0] = 3.0f;
  a[1] = 4.0f;  // Norm 5 > 1.
  table.ProjectRowToL2Ball(0, 2, 1.0f);
  EXPECT_NEAR(table.RowNorm(0, 2), 1.0f, 1e-6);
  EXPECT_NEAR(a[0] / a[1], 0.75f, 1e-6);  // Direction preserved.

  float* b = table.Row(1);
  b[0] = 0.3f;
  b[1] = 0.4f;  // Norm 0.5 <= 1: untouched.
  table.ProjectRowToL2Ball(1, 2, 1.0f);
  EXPECT_FLOAT_EQ(b[0], 0.3f);
  EXPECT_FLOAT_EQ(b[1], 0.4f);
}

TEST(EmbeddingTableTest, ProjectPrefixLeavesSuffixAlone) {
  EmbeddingTable table(1, 4);
  float* row = table.Row(0);
  row[0] = 10.0f;
  row[3] = 7.0f;
  table.ProjectRowToL2Ball(0, 2, 1.0f);
  EXPECT_NEAR(row[0], 1.0f, 1e-6);
  EXPECT_FLOAT_EQ(row[3], 7.0f);
}

TEST(EmbeddingTableTest, CopyLogicalFromCrossesLayouts) {
  EmbeddingTable src(4, 5);  // Compact.
  Rng rng(3);
  UniformInit(&src, -1.0, 1.0, &rng);
  EmbeddingTable dst(4, 5, simd::kPadLanes);  // Padded.
  dst.CopyLogicalFrom(src);
  for (int32_t r = 0; r < 4; ++r) {
    for (int i = 0; i < 5; ++i) EXPECT_EQ(dst.Row(r)[i], src.Row(r)[i]);
    for (int i = 5; i < dst.stride(); ++i) EXPECT_EQ(dst.Row(r)[i], 0.0f);
  }
  // And back: padded → compact round-trips the logical contents.
  EmbeddingTable back(4, 5);
  back.CopyLogicalFrom(dst);
  for (int32_t r = 0; r < 4; ++r) {
    for (int i = 0; i < 5; ++i) EXPECT_EQ(back.Row(r)[i], src.Row(r)[i]);
  }
}

TEST(EmbeddingTableDeathTest, CopyLogicalFromRejectsShapeMismatch) {
  EmbeddingTable a(4, 5);
  EmbeddingTable fewer_rows(3, 5);
  EmbeddingTable wider(4, 6);
  EXPECT_DEATH(a.CopyLogicalFrom(fewer_rows), "CHECK");
  EXPECT_DEATH(a.CopyLogicalFrom(wider), "CHECK");
}

TEST(EmbeddingTableDeathTest, OutOfRangeRowAborts) {
  EmbeddingTable table(2, 2);
  EXPECT_DEATH(table.Row(2), "CHECK");
  EXPECT_DEATH(table.Row(-1), "CHECK");
}

TEST(EmbeddingTableDeathTest, ScorerRejectsTableOfWrongLogicalWidth) {
  // A scorer declared for dim d must refuse to adopt tables whose logical
  // width disagrees with what it declares — interpreting mis-shaped rows
  // would silently read the wrong floats. Padding does NOT change the
  // logical width, so a padded table of the right width is accepted.
  const int dim = 8;
  EXPECT_DEATH(
      {
        // TransE declares entity_width(8) == 8; build a width-10 table.
        KgeModel model(dim, MakeScoringFunction("transe"),
                       EmbeddingTable(20, 10), EmbeddingTable(4, dim));
      },
      "entity table width");
  EXPECT_DEATH(
      {
        // ComplEx declares relation_width(8) == 16, not 8.
        KgeModel model(dim, MakeScoringFunction("complex"),
                       EmbeddingTable(20, 16), EmbeddingTable(4, 8));
      },
      "relation table width");
  EXPECT_DEATH(
      {
        // Padding does not hide a wrong logical width either.
        KgeModel model(6, MakeScoringFunction("transe"),
                       EmbeddingTable(50, 7, simd::kPadLanes),
                       EmbeddingTable(4, 6, simd::kPadLanes));
      },
      "width does not match");
}

TEST(EmbeddingTableTest, ModelAdoptsWidthMatchedTablesOfAnyLayout) {
  const int dim = 8;
  KgeModel compact(dim, MakeScoringFunction("transe"),
                   EmbeddingTable(20, dim), EmbeddingTable(4, dim));
  KgeModel padded(dim, MakeScoringFunction("complex"),
                  EmbeddingTable(20, 2 * dim, simd::kPadLanes),
                  EmbeddingTable(4, 2 * dim, simd::kPadLanes));
  EXPECT_EQ(compact.entity_table().width(), dim);
  EXPECT_EQ(padded.entity_table().width(), 2 * dim);
  EXPECT_EQ(padded.num_parameters(), 20u * 16 + 4u * 16);
}

}  // namespace
}  // namespace nsc
