#include "embedding/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "forged_checkpoint.h"

namespace nsc {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

KgeModel MakeModel(const std::string& scorer, uint64_t seed = 5,
                   TableLayout layout = TableLayout::kPadded) {
  KgeModel model(17, 4, 6, MakeScoringFunction(scorer), layout);
  Rng rng(seed);
  model.InitXavier(&rng);
  return model;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(CheckpointTest, RoundTripPreservesEverything) {
  const std::string path = TempPath("roundtrip.nsckpt");
  const KgeModel model = MakeModel("transd");
  ASSERT_TRUE(SaveModel(model, path).ok());

  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const KgeModel& copy = loaded.value();
  EXPECT_EQ(copy.scorer().name(), "transd");
  EXPECT_EQ(copy.num_entities(), 17);
  EXPECT_EQ(copy.num_relations(), 4);
  EXPECT_EQ(copy.dim(), 6);
  EXPECT_EQ(copy.entity_table().LogicalCopy(),
            model.entity_table().LogicalCopy());
  EXPECT_EQ(copy.relation_table().LogicalCopy(),
            model.relation_table().LogicalCopy());
  // Scores identical on a few probes.
  for (EntityId h = 0; h < 5; ++h) {
    EXPECT_DOUBLE_EQ(copy.Score(h, 1, 16 - h), model.Score(h, 1, 16 - h));
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, RoundTripEveryScorer) {
  for (const std::string& scorer : ListScoringFunctions()) {
    const std::string path = TempPath("rt_" + scorer + ".nsckpt");
    const KgeModel model = MakeModel(scorer);
    ASSERT_TRUE(SaveModel(model, path).ok()) << scorer;
    auto loaded = LoadModel(path);
    ASSERT_TRUE(loaded.ok()) << scorer << ": " << loaded.status().ToString();
    EXPECT_EQ(loaded.value().scorer().name(), scorer);
    EXPECT_EQ(loaded.value().entity_table().LogicalCopy(),
              model.entity_table().LogicalCopy());
    std::remove(path.c_str());
  }
}

TEST(CheckpointTest, SaveIsLayoutIndependentAndReloadResavesSameBytes) {
  // The file holds rows over the logical width only: a padded and a
  // compact model with the same contents write the same bytes, and a
  // reloaded model writes them again.
  const std::string path = TempPath("layout.nsckpt");
  const KgeModel padded = MakeModel("transd", 43, TableLayout::kPadded);
  const KgeModel compact = MakeModel("transd", 43, TableLayout::kCompact);
  ASSERT_TRUE(SaveModel(padded, path).ok());
  const std::string padded_bytes = ReadBytes(path);
  ASSERT_FALSE(padded_bytes.empty());
  ASSERT_TRUE(SaveModel(compact, path).ok());
  EXPECT_EQ(ReadBytes(path), padded_bytes);

  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().entity_table().LogicalCopy(),
            compact.entity_table().LogicalCopy());
  EXPECT_EQ(loaded.value().relation_table().LogicalCopy(),
            compact.relation_table().LogicalCopy());
  ASSERT_TRUE(SaveModel(loaded.value(), path).ok());
  EXPECT_EQ(ReadBytes(path), padded_bytes);
  std::remove(path.c_str());
}

TEST(CheckpointTest, OversizedShapeIsInvalidArgumentNotAnAbort) {
  // 30 bytes whose header claims 2^30 × 1024 floats. The shape must be
  // checked against the body before the model is allocated, for the
  // CRC-less v1 format and for a v2 file whose CRC is valid.
  const std::string path = TempPath("oversized.nsckpt");
  for (const int version : {1, 2}) {
    WriteBytes(path, ForgedCheckpoint(version, "transe", int32_t{1} << 30, 1,
                                      1024));
    auto loaded = LoadModel(path);
    ASSERT_FALSE(loaded.ok()) << "v" << version;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << "v" << version << ": " << loaded.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, ShapeWhoseWidthsOverflowIsInvalidArgument) {
  // TransR rows are d + d² floats: a huge dim must be refused before the
  // scorer's int widths are computed, and the largest legal dim with the
  // largest counts must not overflow the size arithmetic.
  const std::string path = TempPath("overflow.nsckpt");
  for (const int version : {1, 2}) {
    WriteBytes(path, ForgedCheckpoint(version, "transr", 3, 2, 1 << 20));
    auto loaded = LoadModel(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);

    const int32_t kMax = std::numeric_limits<int32_t>::max();
    WriteBytes(path, ForgedCheckpoint(version, "transr", kMax, kMax, 1 << 15));
    loaded = LoadModel(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, MissingFileIsIOError) {
  auto loaded = LoadModel("/nonexistent/x.nsckpt");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST(CheckpointTest, GarbageFileIsInvalidArgument) {
  const std::string path = TempPath("garbage.nsckpt");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a checkpoint at all";
  }
  auto loaded = LoadModel(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(CheckpointTest, TruncatedFileIsInvalidArgument) {
  const std::string path = TempPath("trunc.nsckpt");
  const KgeModel model = MakeModel("transe");
  ASSERT_TRUE(SaveModel(model, path).ok());
  // Chop the file short.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  auto loaded = LoadModel(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(CheckpointTest, LegacyV1FilesStillLoad) {
  // A v1 file is a v2 file with the old magic and no CRC trailer. Build
  // one from fresh v2 bytes so the body layout is provably shared.
  const std::string path = TempPath("legacy_v1.nsckpt");
  const KgeModel model = MakeModel("transh");
  ASSERT_TRUE(SaveModel(model, path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  bytes.replace(0, 8, "NSCKPT01");
  bytes.resize(bytes.size() - 4);  // Drop the CRC trailer.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().scorer().name(), "transh");
  EXPECT_EQ(loaded.value().entity_table().LogicalCopy(),
            model.entity_table().LogicalCopy());
  EXPECT_EQ(loaded.value().relation_table().LogicalCopy(),
            model.relation_table().LogicalCopy());
  std::remove(path.c_str());
}

TEST(CheckpointTest, SingleBitFlipIsInvalidArgument) {
  // The CRC trailer turns silent body corruption into a load error.
  const std::string path = TempPath("bitflip.nsckpt");
  const KgeModel model = MakeModel("transe");
  ASSERT_TRUE(SaveModel(model, path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  // Flip one bit deep in the float tables — a spot v1 could not detect.
  std::string corrupt = bytes;
  corrupt[bytes.size() / 2] ^= 0x10;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
  }
  auto loaded = LoadModel(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(CheckpointTest, TrailingBytesRejected) {
  const std::string path = TempPath("trailing.nsckpt");
  const KgeModel model = MakeModel("transe");
  ASSERT_TRUE(SaveModel(model, path).ok());
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "extra";
  }
  auto loaded = LoadModel(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nsc
