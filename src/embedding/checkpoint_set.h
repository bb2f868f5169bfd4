// A crash-recoverable DIRECTORY of checkpoints: the unit the serving
// stack's background writer produces and a restarted process recovers
// from.
//
// One file per checkpoint (`ckpt-<step>.nsc`, format v2 with a CRC-32C
// trailer — embedding/checkpoint.h), the newest `keep` retained, plus an
// advisory MANIFEST. The layout is designed so that NO crash point loses
// committed data:
//
//   - A crash mid-write leaves a torn `ckpt-<step>.nsc` whose missing
//     trailer / CRC mismatch makes it self-evidently invalid; earlier
//     checkpoints are separate files and untouched.
//   - A crash between the data file and the manifest leaves a stale
//     manifest — which is why recovery NEVER trusts it: LoadLatestValid
//     rescans the directory and validates actual bytes.
//   - Retention prunes oldest-first and only after the new checkpoint is
//     fully on disk, so the set always contains the newest valid state.
//
// LoadLatestValid() walks the files newest-step-first and returns the
// first one that fully validates (magic, length, CRC), skipping torn or
// corrupt files — the recovery contract pinned by
// tests/embedding/checkpoint_set_test.cc's corruption matrix.
#ifndef NSCACHING_EMBEDDING_CHECKPOINT_SET_H_
#define NSCACHING_EMBEDDING_CHECKPOINT_SET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "embedding/checkpoint.h"
#include "embedding/model.h"
#include "util/status.h"

namespace nsc {

/// Configuration of a CheckpointSet.
struct CheckpointSetOptions {
  /// Newest checkpoints retained on disk (>= 1). Older files are pruned
  /// after each successful write.
  int keep = 3;
};

/// A checkpoint restored by CheckpointSet::LoadLatestValid.
struct LoadedCheckpoint {
  KgeModel model;
  int64_t step = -1;
  /// Files newer than the loaded one that failed validation and were
  /// skipped (diagnostics; empty on a clean directory).
  std::vector<std::string> skipped;
};

/// Manages `dir` as a set of retained checkpoints. One writer at a time
/// (the snapshot publisher's background thread); any number of readers.
class CheckpointSet {
 public:
  explicit CheckpointSet(std::string dir,
                         CheckpointSetOptions options = CheckpointSetOptions());

  /// Creates the directory if missing (one level). Idempotent.
  Status Init() const;

  /// Writes `model` at `step` to ckpt-<step>.nsc, rewrites the manifest
  /// (temp + rename), then prunes beyond options.keep. On write failure
  /// the torn file is left in place — recovery skips it by validation,
  /// and a retrying writer overwrites it; removal here would hide the
  /// exact state a crash leaves.
  Status Write(const KgeModel& model, int64_t step) const;

  /// Newest checkpoint in the directory that validates end to end.
  /// Skips (and records) torn/corrupt/unreadable files. NotFound when
  /// the directory holds no valid checkpoint; IOError when it cannot be
  /// listed.
  StatusOr<LoadedCheckpoint> LoadLatestValid() const;

  /// Steps of every checkpoint FILE present (valid or not), ascending.
  StatusOr<std::vector<int64_t>> ListSteps() const;

  /// dir/ckpt-<step>.nsc — exposed for tests that corrupt files in
  /// place.
  std::string CheckpointPath(int64_t step) const;

  const std::string& dir() const { return dir_; }

 private:
  Status WriteManifest(const std::vector<int64_t>& steps) const;

  const std::string dir_;
  const CheckpointSetOptions options_;
};

}  // namespace nsc

#endif  // NSCACHING_EMBEDDING_CHECKPOINT_SET_H_
