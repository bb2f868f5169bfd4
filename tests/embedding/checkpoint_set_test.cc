// CheckpointSet: the crash-recovery contract. A corruption MATRIX
// (truncation at every section boundary, single-bit flips, bad magic)
// proves LoadModel rejects every torn/corrupt shape a crash can leave,
// and the recovery tests prove LoadLatestValid walks past them to the
// newest valid step. The fault-injected cases reproduce actual
// killed-writer states (torn file on disk) rather than hand-crafted ones.
#include "embedding/checkpoint_set.h"

#include <dirent.h>
#include <sys/stat.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "embedding/checkpoint.h"
#include "forged_checkpoint.h"
#include "util/fault.h"

namespace nsc {
namespace {

KgeModel MakeModel(uint64_t seed) {
  KgeModel model(17, 4, 6, MakeScoringFunction("transe"));
  Rng rng(seed);
  model.InitXavier(&rng);
  return model;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Fresh empty scratch directory under the test tmpdir.
std::string ScratchDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/ckptset_" + name;
  DIR* existing = ::opendir(dir.c_str());
  if (existing != nullptr) {
    for (const dirent* e = ::readdir(existing); e != nullptr;
         e = ::readdir(existing)) {
      const std::string entry = e->d_name;
      if (entry != "." && entry != "..") {
        std::remove((dir + "/" + entry).c_str());
      }
    }
    ::closedir(existing);
  } else {
    ::mkdir(dir.c_str(), 0777);
  }
  return dir;
}

TEST(CheckpointSetTest, WriteThenLoadLatestValid) {
  const std::string dir = ScratchDir("roundtrip");
  CheckpointSet set(dir);
  const KgeModel model = MakeModel(3);
  ASSERT_TRUE(set.Write(model, 42).ok());

  auto loaded = set.LoadLatestValid();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().step, 42);
  EXPECT_TRUE(loaded.value().skipped.empty());
  EXPECT_EQ(loaded.value().model.entity_table().LogicalCopy(),
            model.entity_table().LogicalCopy());
}

TEST(CheckpointSetTest, RetentionPrunesOldestBeyondKeep) {
  const std::string dir = ScratchDir("retention");
  CheckpointSetOptions options;
  options.keep = 3;
  CheckpointSet set(dir, options);
  for (int64_t step = 1; step <= 5; ++step) {
    ASSERT_TRUE(set.Write(MakeModel(static_cast<uint64_t>(step)), step).ok());
  }
  auto steps = set.ListSteps();
  ASSERT_TRUE(steps.ok());
  EXPECT_EQ(steps.value(), (std::vector<int64_t>{3, 4, 5}));
}

TEST(CheckpointSetTest, EmptyDirectoryIsNotFound) {
  const std::string dir = ScratchDir("empty");
  CheckpointSet set(dir);
  ASSERT_TRUE(set.Init().ok());
  auto loaded = set.LoadLatestValid();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(CheckpointSetTest, UnlistableDirectoryIsIOError) {
  CheckpointSet set("/nonexistent/checkpoints");
  auto loaded = set.LoadLatestValid();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

// The corruption matrix: a v2 checkpoint truncated at EVERY section
// boundary (and a few interior points) must be rejected. Boundaries for
// the 17x4x6 transe model: magic 8, name_len 4, name 6, shape 12, entity
// table 17*6*4, relation table 4*6*4, CRC trailer 4.
TEST(CheckpointSetTest, TruncationAtEverySectionBoundaryRejected) {
  const std::string dir = ScratchDir("trunc_matrix");
  CheckpointSet set(dir);
  ASSERT_TRUE(set.Write(MakeModel(7), 1).ok());
  const std::string path = set.CheckpointPath(1);
  const std::string bytes = ReadFile(path);

  const std::size_t magic = 8;
  const std::size_t name_len_end = magic + 4;
  const std::size_t name_end = name_len_end + 6;  // "transe"
  const std::size_t shape_end = name_end + 12;
  const std::size_t entities_end = shape_end + 17 * 6 * sizeof(float);
  const std::size_t relations_end = entities_end + 4 * 6 * sizeof(float);
  ASSERT_EQ(bytes.size(), relations_end + 4);  // + CRC trailer.

  const std::vector<std::size_t> cuts = {
      0,                  // Empty file.
      magic / 2,          // Mid-magic.
      magic,              // Magic only.
      name_len_end,       // Through the name length.
      name_end - 3,       // Mid-name.
      name_end,           // Through the name.
      shape_end - 4,      // Mid-shape.
      shape_end,          // Through the shape.
      shape_end + 10,     // Mid-entity-table (not row-aligned).
      entities_end,       // Through the entity table.
      relations_end - 2,  // Mid-relation-table.
      relations_end,      // Everything but the CRC.
      bytes.size() - 1,   // One byte short of complete.
  };
  for (const std::size_t cut : cuts) {
    WriteFile(path, bytes.substr(0, cut));
    auto loaded = LoadModel(path);
    ASSERT_FALSE(loaded.ok()) << "cut at " << cut << " was accepted";
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << "cut at " << cut;
    // And recovery refuses to resurrect it.
    auto recovered = set.LoadLatestValid();
    ASSERT_FALSE(recovered.ok()) << "cut at " << cut;
    EXPECT_EQ(recovered.status().code(), StatusCode::kNotFound);
  }
}

// Single-bit flips anywhere in the file must be rejected — in the body
// via CRC mismatch, in the magic via unknown-format, in the trailer via
// CRC mismatch. "Improbable to load garbage" became "detected".
TEST(CheckpointSetTest, SingleBitFlipsRejected) {
  const std::string dir = ScratchDir("bitflip");
  CheckpointSet set(dir);
  ASSERT_TRUE(set.Write(MakeModel(11), 1).ok());
  const std::string path = set.CheckpointPath(1);
  const std::string bytes = ReadFile(path);

  const std::vector<std::size_t> offsets = {
      0,                 // Magic.
      7,                 // Last magic byte (version digit).
      9,                 // Name length.
      14,                // Scorer name.
      21,                // Shape.
      40,                // Entity table.
      bytes.size() / 2,  // Deep in the tables.
      bytes.size() - 3,  // CRC trailer.
  };
  for (const std::size_t offset : offsets) {
    for (const int bit : {0, 7}) {
      std::string corrupt = bytes;
      corrupt[offset] = static_cast<char>(corrupt[offset] ^ (1 << bit));
      WriteFile(path, corrupt);
      auto loaded = LoadModel(path);
      ASSERT_FALSE(loaded.ok())
          << "bit " << bit << " at offset " << offset << " was accepted";
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(CheckpointSetTest, WrongAndShortMagicRejected) {
  const std::string dir = ScratchDir("magic");
  CheckpointSet set(dir);
  ASSERT_TRUE(set.Write(MakeModel(13), 1).ok());
  const std::string path = set.CheckpointPath(1);
  const std::string bytes = ReadFile(path);

  std::string wrong = bytes;
  wrong.replace(0, 8, "NSCKPT99");
  WriteFile(path, wrong);
  EXPECT_EQ(LoadModel(path).status().code(), StatusCode::kInvalidArgument);

  WriteFile(path, "NSCK");  // Shorter than any magic.
  EXPECT_EQ(LoadModel(path).status().code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointSetTest, RecoverySkipsCorruptNewestFiles) {
  const std::string dir = ScratchDir("recovery_order");
  CheckpointSet set(dir);
  const KgeModel step2_model = MakeModel(2);
  ASSERT_TRUE(set.Write(MakeModel(1), 1).ok());
  ASSERT_TRUE(set.Write(step2_model, 2).ok());
  ASSERT_TRUE(set.Write(MakeModel(3), 3).ok());
  ASSERT_TRUE(set.Write(MakeModel(4), 4).ok());

  // Tear the two newest; recovery must land on step 2, reporting both
  // skipped files.
  const std::string newest = ReadFile(set.CheckpointPath(4));
  WriteFile(set.CheckpointPath(4), newest.substr(0, newest.size() / 3));
  WriteFile(set.CheckpointPath(3), "NSCKPT02 torn beyond recognition");

  auto loaded = set.LoadLatestValid();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().step, 2);
  EXPECT_EQ(loaded.value().skipped.size(), 2u);
  EXPECT_EQ(loaded.value().model.entity_table().LogicalCopy(),
            step2_model.entity_table().LogicalCopy());
}

TEST(CheckpointSetTest, RecoverySkipsOversizedHeader) {
  // A newest file whose header claims 2^30 entities (with a valid CRC)
  // is skipped like any corrupt file, not allowed to exhaust memory.
  const std::string dir = ScratchDir("oversized");
  CheckpointSet set(dir);
  const KgeModel good = MakeModel(7);
  ASSERT_TRUE(set.Write(good, 1).ok());
  ASSERT_TRUE(set.Write(MakeModel(8), 2).ok());
  WriteFile(set.CheckpointPath(2),
            ForgedCheckpoint(2, "transe", int32_t{1} << 30, 1, 1024));

  auto loaded = set.LoadLatestValid();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().step, 1);
  EXPECT_EQ(loaded.value().skipped.size(), 1u);
  EXPECT_EQ(loaded.value().model.entity_table().LogicalCopy(),
            good.entity_table().LogicalCopy());
}

TEST(CheckpointSetTest, ManifestIsAdvisoryOnly) {
  const std::string dir = ScratchDir("manifest");
  CheckpointSet set(dir);
  ASSERT_TRUE(set.Write(MakeModel(5), 7).ok());

  // A lying manifest (crash between data file and manifest, or plain
  // corruption) must not affect recovery: it rescans real files.
  WriteFile(dir + "/MANIFEST", "9999 ckpt-9999.nsc\n");
  auto loaded = set.LoadLatestValid();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().step, 7);

  std::remove((dir + "/MANIFEST").c_str());
  loaded = set.LoadLatestValid();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().step, 7);
}

#if NSC_FAULTS

// A fault-injected torn write: the writer "crashes" mid-file (kTruncate
// leaves the torn prefix on disk exactly as a killed process would), the
// Write reports the failure, and recovery returns the previous step.
TEST(CheckpointSetTest, InjectedTornWriteIsSkippedByRecovery) {
  const std::string dir = ScratchDir("torn_fault");
  CheckpointSet set(dir);
  const KgeModel good = MakeModel(21);
  ASSERT_TRUE(set.Write(good, 1).ok());

  {
    FaultSpec spec;
    spec.action = FaultAction::kTruncate;
    spec.trigger = FaultTrigger::kNthHit;
    spec.n = 6;  // Tear in the middle of the entity table rows.
    spec.truncate_at = 3;
    ScopedFault fault("ckpt.write", spec);
    const Status status = set.Write(MakeModel(22), 2);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kIOError);
  }

  // The torn file is ON DISK (crash semantics: no cleanup)...
  EXPECT_FALSE(LoadModel(set.CheckpointPath(2)).ok());
  // ...and recovery walks past it to the last valid step.
  auto loaded = set.LoadLatestValid();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().step, 1);
  EXPECT_EQ(loaded.value().skipped.size(), 1u);
  EXPECT_EQ(loaded.value().model.entity_table().LogicalCopy(),
            good.entity_table().LogicalCopy());
}

TEST(CheckpointSetTest, InjectedOpenFailureFailsCleanly) {
  const std::string dir = ScratchDir("open_fault");
  CheckpointSet set(dir);
  FaultSpec spec;
  spec.action = FaultAction::kError;
  ScopedFault fault("ckpt.open", spec);
  const Status status = set.Write(MakeModel(31), 1);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError);
}

// The crash-restart test: the process REALLY dies (kAbort) mid-write,
// and a fresh "restarted" CheckpointSet recovers to the newest valid
// step. gtest death tests fork, so the abort kills only the child — the
// parent observes the exact on-disk state the crash left.
TEST(CheckpointSetDeathTest, CrashMidWriteRecoversAfterRestart) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string dir = ScratchDir("crash_restart");
  {
    CheckpointSet set(dir);
    ASSERT_TRUE(set.Write(MakeModel(41), 10).ok());
  }

  EXPECT_DEATH(
      {
        FaultSpec spec;
        spec.action = FaultAction::kAbort;
        spec.trigger = FaultTrigger::kNthHit;
        spec.n = 8;  // Mid-entity-table.
        FaultRegistry::Global().Arm("ckpt.write", spec);
        CheckpointSet dying(dir);
        (void)dying.Write(MakeModel(42), 11);
      },
      "injected abort at point 'ckpt.write'");

  // "Restart": a new CheckpointSet over the same directory. The torn
  // ckpt-11 from the killed child must be skipped.
  CheckpointSet restarted(dir);
  auto steps = restarted.ListSteps();
  ASSERT_TRUE(steps.ok());
  EXPECT_EQ(steps.value(), (std::vector<int64_t>{10, 11}));
  auto loaded = restarted.LoadLatestValid();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().step, 10);
  EXPECT_EQ(loaded.value().skipped.size(), 1u);
}

#endif  // NSC_FAULTS

}  // namespace
}  // namespace nsc
