// Hand-built checkpoint headers for the untrusted-input tests: a header
// whose shape claims far more floats than the file holds must be
// rejected before anything is allocated from that shape.
#ifndef NSCACHING_TESTS_EMBEDDING_FORGED_CHECKPOINT_H_
#define NSCACHING_TESTS_EMBEDDING_FORGED_CHECKPOINT_H_

#include <cstdint>
#include <string>

#include "util/crc32c.h"

namespace nsc {

/// Magic, scorer name and shape {entities, relations, dim} with no table
/// floats. `version` 1 gives an NSCKPT01 file (no trailer); 2 gives an
/// NSCKPT02 file whose CRC trailer is valid, so only the shape check can
/// refuse it.
inline std::string ForgedCheckpoint(int version, const std::string& scorer,
                                    int32_t entities, int32_t relations,
                                    int32_t dim) {
  std::string bytes = version == 1 ? "NSCKPT01" : "NSCKPT02";
  const uint32_t name_len = static_cast<uint32_t>(scorer.size());
  bytes.append(reinterpret_cast<const char*>(&name_len), sizeof(name_len));
  bytes += scorer;
  const int32_t shape[3] = {entities, relations, dim};
  bytes.append(reinterpret_cast<const char*>(shape), sizeof(shape));
  if (version != 1) {
    const uint32_t crc = Crc32c(0, bytes.data(), bytes.size());
    bytes.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  }
  return bytes;
}

}  // namespace nsc

#endif  // NSCACHING_TESTS_EMBEDDING_FORGED_CHECKPOINT_H_
