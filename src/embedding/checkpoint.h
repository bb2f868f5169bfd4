// Model checkpointing: saves/loads a KgeModel's scorer identity, shape and
// both embedding tables in a small self-describing binary format. Used to
// persist pretrained models (the paper's "+pretrain" regimes), to ship
// trained embeddings to downstream tasks, and — through
// embedding/checkpoint_set.h — as the crash-recoverable unit the serving
// stack's background writer produces.
#ifndef NSCACHING_EMBEDDING_CHECKPOINT_H_
#define NSCACHING_EMBEDDING_CHECKPOINT_H_

#include <string>

#include "embedding/model.h"
#include "util/status.h"

namespace nsc {

/// Writes `model` to `path` in format v2. Overwrites. Layout
/// (little-endian):
///   8-byte magic "NSCKPT02", u32 scorer-name length, scorer name bytes,
///   i32 num_entities, i32 num_relations, i32 dim,
///   entity table floats, relation table floats,
///   u32 CRC-32C over every preceding byte (magic included).
/// The trailer is what makes torn writes DETECTABLE rather than merely
/// improbable: a reader validates length + CRC before trusting a single
/// parsed field, so a file cut short by a crash (or flipped by a bad
/// disk) is rejected instead of loaded as garbage.
///
/// Fault points (util/fault.h): "ckpt.open" fails the open; "ckpt.write"
/// is evaluated once per write call (header fields and each table row) —
/// kError fails the save, kTruncate tears the file mid-write and reports
/// the crash-shaped IOError without cleaning up, exactly what a killed
/// writer leaves behind.
Status SaveModel(const KgeModel& model, const std::string& path);

/// Reads a model written by SaveModel — either format v2 ("NSCKPT02",
/// CRC-validated) or the legacy v1 ("NSCKPT01", no trailer; files from
/// older builds load unchanged). Fails with IOError on unreadable files
/// and InvalidArgument on malformed, truncated, or CRC-mismatching
/// content, and on a header whose shape does not match the body's size
/// (checked before anything is allocated from that shape).
StatusOr<KgeModel> LoadModel(const std::string& path);

}  // namespace nsc

#endif  // NSCACHING_EMBEDDING_CHECKPOINT_H_
