#include "embedding/embedding_table.h"

#include <algorithm>
#include <cmath>

#include "util/math.h"

namespace nsc {

void EmbeddingTable::CopyLogicalFrom(const EmbeddingTable& other) {
  CHECK_EQ(rows_, other.rows());
  CHECK_EQ(width_, other.width());
  for (int32_t r = 0; r < rows_; ++r) {
    const float* src = other.Row(r);
    float* dst = Row(r);
    for (int i = 0; i < width_; ++i) dst[i] = src[i];
  }
}

std::vector<float> EmbeddingTable::LogicalCopy() const {
  std::vector<float> out(logical_size());
  for (int32_t r = 0; r < rows_; ++r) {
    const float* src = Row(r);
    std::copy(src, src + width_,
              out.begin() + static_cast<size_t>(r) * width_);
  }
  return out;
}

void EmbeddingTable::ProjectRowToL2Ball(int32_t i, int prefix, float max_norm) {
  CHECK_LE(prefix, width_);
  float* row = Row(i);
  const float norm = L2Norm(row, prefix);
  if (norm > max_norm && norm > 0.0f) {
    Scale(max_norm / norm, row, prefix);
  }
}

float EmbeddingTable::RowNorm(int32_t i, int prefix) const {
  CHECK_LE(prefix, width_);
  return L2Norm(Row(i), prefix);
}

}  // namespace nsc
