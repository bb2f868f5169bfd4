#include "embedding/checkpoint.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <vector>

#include "util/crc32c.h"
#include "util/fault.h"

namespace nsc {

namespace {
constexpr char kMagicV1[8] = {'N', 'S', 'C', 'K', 'P', 'T', '0', '1'};
constexpr char kMagicV2[8] = {'N', 'S', 'C', 'K', 'P', 'T', '0', '2'};
constexpr std::size_t kMagicSize = sizeof(kMagicV2);
constexpr std::size_t kTrailerSize = sizeof(uint32_t);
// Largest dim a checkpoint may declare. Every scorer's row width is at
// most dim + dim² (TransR), which stays inside int up to 2^15, so the
// widths the header implies can be computed without overflow.
constexpr int32_t kMaxDim = int32_t{1} << 15;

// Fault-aware, CRC-accumulating file sink. Every chunk handed to Write
// evaluates the "ckpt.write" fault point, so a test can fail or tear the
// file at ANY write boundary (header fields, any table row):
//   - kError: the write is skipped and the save fails cleanly.
//   - kTruncate: only hit.truncate_at bytes of the chunk land, every
//     later write is dropped, and the save reports a crash-shaped error
//     WITHOUT deleting the torn file — the on-disk state a killed writer
//     leaves behind, which LoadModel must reject and CheckpointSet must
//     recover past.
class CheckpointSink {
 public:
  explicit CheckpointSink(const std::string& path)
      : path_(path), out_(path, std::ios::binary) {
    if (NSC_FAULT_POINT("ckpt.open").error()) {
      status_ = Status::IOError("injected ckpt.open failure for " + path);
      out_.close();
      return;
    }
    if (!out_) {
      status_ = Status::IOError("cannot open " + path + " for writing");
    }
  }

  void Write(const void* data, std::size_t size) {
    if (!status_.ok() || crashed_) return;
    const FaultHit hit = NSC_FAULT_POINT("ckpt.write");
    if (hit.error()) {
      status_ = Status::IOError("injected ckpt.write failure for " + path_);
      return;
    }
    if (hit.truncated()) {
      const std::size_t keep =
          std::min(static_cast<std::size_t>(hit.truncate_at), size);
      out_.write(static_cast<const char*>(data),
                 static_cast<std::streamsize>(keep));
      out_.flush();
      crashed_ = true;
      status_ = Status::IOError("injected crash tore the write of " + path_);
      return;
    }
    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(size));
    crc_ = Crc32c(crc_, data, size);
  }

  uint32_t crc() const { return crc_; }

  /// The final verdict: any earlier injected/real failure, then the
  /// stream state after flush.
  Status Close() {
    if (!status_.ok()) return status_;
    out_.flush();
    if (!out_) return Status::IOError("write failed for " + path_);
    return Status::OK();
  }

 private:
  const std::string path_;
  std::ofstream out_;
  Status status_;
  uint32_t crc_ = 0;
  bool crashed_ = false;
};

// Tables are serialised row-by-row over the logical width, so the on-disk
// format is the compact layout regardless of the in-memory row stride
// (padding is neither written nor read; files from pre-padding builds
// load unchanged).
void WriteTable(CheckpointSink* sink, const EmbeddingTable& table) {
  for (int32_t r = 0; r < table.rows(); ++r) {
    sink->Write(table.Row(r), table.width() * sizeof(float));
  }
}

/// Bounded memory reader over the checkpoint body; Read() fails sticky
/// on overrun so one trailing check covers every field.
class BodyReader {
 public:
  BodyReader(const char* data, std::size_t size) : data_(data), size_(size) {}

  bool Read(void* out, std::size_t size) {
    if (failed_ || size > size_ - pos_) {
      failed_ = true;
      return false;
    }
    std::memcpy(out, data_ + pos_, size);
    pos_ += size;
    return true;
  }

  bool failed() const { return failed_; }
  std::size_t remaining() const { return size_ - pos_; }

 private:
  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

bool ReadTable(BodyReader* in, EmbeddingTable* table) {
  for (int32_t r = 0; r < table->rows(); ++r) {
    if (!in->Read(table->Row(r), table->width() * sizeof(float))) {
      return false;
    }
  }
  return true;
}

/// Parses the shared body (everything between magic and trailer —
/// byte-identical across v1 and v2).
StatusOr<KgeModel> ParseBody(const std::string& path, const char* data,
                             std::size_t size) {
  BodyReader in(data, size);
  uint32_t name_len = 0;
  if (!in.Read(&name_len, sizeof(name_len)) || name_len > 64) {
    return Status::InvalidArgument(path + ": corrupt scorer name length");
  }
  std::string scorer_name(name_len, '\0');
  int32_t shape[3];
  if (!in.Read(scorer_name.data(), name_len) ||
      !in.Read(shape, sizeof(shape))) {
    return Status::InvalidArgument(path + ": truncated header");
  }
  if (shape[0] <= 0 || shape[1] <= 0 || shape[2] <= 0) {
    return Status::InvalidArgument(path + ": non-positive shape");
  }
  if (shape[2] > kMaxDim) {
    return Status::InvalidArgument(path + ": dim out of range");
  }

  auto scorer = MakeScoringFunction(scorer_name);
  if (scorer == nullptr) {
    return Status::InvalidArgument(path + ": unknown scorer " + scorer_name);
  }
  // The header is untrusted: the body must hold exactly the floats its
  // shape implies BEFORE the model is allocated from that shape, or a
  // few-byte file could demand gigabytes.
  const uint64_t entity_width = static_cast<uint64_t>(
      scorer->entity_width(shape[2]));
  const uint64_t relation_width = static_cast<uint64_t>(
      scorer->relation_width(shape[2]));
  uint64_t entity_floats = 0;
  uint64_t relation_floats = 0;
  uint64_t table_floats = 0;
  uint64_t table_bytes = 0;
  if (__builtin_mul_overflow(static_cast<uint64_t>(shape[0]), entity_width,
                             &entity_floats) ||
      __builtin_mul_overflow(static_cast<uint64_t>(shape[1]), relation_width,
                             &relation_floats) ||
      __builtin_add_overflow(entity_floats, relation_floats, &table_floats) ||
      __builtin_mul_overflow(table_floats, uint64_t{sizeof(float)},
                             &table_bytes)) {
    return Status::InvalidArgument(path + ": shape overflows");
  }
  if (table_bytes > in.remaining()) {
    return Status::InvalidArgument(path + ": truncated tables");
  }
  if (table_bytes < in.remaining()) {
    return Status::InvalidArgument(path + ": trailing bytes");
  }
  KgeModel model(shape[0], shape[1], shape[2], std::move(scorer));
  if (!ReadTable(&in, &model.entity_table()) ||
      !ReadTable(&in, &model.relation_table())) {
    return Status::InvalidArgument(path + ": truncated tables");
  }
  return model;
}

}  // namespace

Status SaveModel(const KgeModel& model, const std::string& path) {
  CheckpointSink sink(path);
  sink.Write(kMagicV2, kMagicSize);
  const std::string scorer = model.scorer().name();
  const uint32_t name_len = static_cast<uint32_t>(scorer.size());
  sink.Write(&name_len, sizeof(name_len));
  sink.Write(scorer.data(), name_len);
  const int32_t shape[3] = {model.num_entities(), model.num_relations(),
                            model.dim()};
  sink.Write(shape, sizeof(shape));
  WriteTable(&sink, model.entity_table());
  WriteTable(&sink, model.relation_table());
  // The trailer pins every byte above; it goes through the same sink, so
  // an injected tear can also cut the file between body and CRC.
  const uint32_t crc = sink.crc();
  sink.Write(&crc, sizeof(crc));
  return sink.Close();
}

StatusOr<KgeModel> LoadModel(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  // Whole-file read: integrity is checked over the complete byte range
  // before any field is trusted, which needs the bytes anyway.
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (!in && !in.eof()) return Status::IOError("cannot read " + path);

  if (bytes.size() < kMagicSize) {
    return Status::InvalidArgument(path + ": not an NSCaching checkpoint");
  }
  if (std::memcmp(bytes.data(), kMagicV2, kMagicSize) == 0) {
    if (bytes.size() < kMagicSize + kTrailerSize) {
      return Status::InvalidArgument(path + ": truncated header");
    }
    const std::size_t body_end = bytes.size() - kTrailerSize;
    uint32_t stored_crc = 0;
    std::memcpy(&stored_crc, bytes.data() + body_end, kTrailerSize);
    const uint32_t actual_crc = Crc32c(0, bytes.data(), body_end);
    if (stored_crc != actual_crc) {
      return Status::InvalidArgument(
          path + ": CRC mismatch (torn or corrupt checkpoint)");
    }
    return ParseBody(path, bytes.data() + kMagicSize, body_end - kMagicSize);
  }
  if (std::memcmp(bytes.data(), kMagicV1, kMagicSize) == 0) {
    // Legacy v1: no trailer, integrity rests on the exact-length check
    // inside ParseBody. Still written by nothing, still read forever.
    return ParseBody(path, bytes.data() + kMagicSize,
                     bytes.size() - kMagicSize);
  }
  return Status::InvalidArgument(path + ": not an NSCaching checkpoint");
}

}  // namespace nsc
