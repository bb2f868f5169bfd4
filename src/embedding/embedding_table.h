// Dense row-major embedding storage. One table per id space (entities,
// relations); the per-row width is chosen by the scoring function (e.g.
// TransH packs [r | w_r] into a 2d-wide relation row).
//
// Memory layout: rows are stored at a fixed `stride() >= width()` float
// pitch in one 64-byte-aligned allocation. With the default pad_lanes = 1
// the stride equals the logical width (the historical compact layout);
// with pad_lanes = simd::kPadLanes the stride is the width rounded up to
// the SIMD lane multiple, so every row starts 64-byte aligned and SIMD
// kernels never straddle a row boundary. Padding floats are zero on
// allocation and are never read, written, checkpointed, or counted as
// parameters — all consumers must iterate Row(i)[0..width) and step by
// stride (or use Row()), never assume rows are adjacent in data().
#ifndef NSCACHING_EMBEDDING_EMBEDDING_TABLE_H_
#define NSCACHING_EMBEDDING_EMBEDDING_TABLE_H_

#include <cstdint>
#include <new>
#include <vector>

#include "util/logging.h"
#include "util/simd.h"

namespace nsc {

/// Minimal C++17 aligned allocator so embedding storage (and anything
/// shape-compatible with it, like optimizer moment buffers) starts on a
/// cache-line/SIMD-friendly boundary.
template <typename T>
class AlignedAllocator {
 public:
  using value_type = T;
  static constexpr std::size_t kAlignment = simd::kRowAlignment;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(kAlignment)));
  }
  void deallocate(T* p, std::size_t) {
    ::operator delete(p, std::align_val_t(kAlignment));
  }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U>;
  };

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
  friend bool operator!=(const AlignedAllocator&, const AlignedAllocator&) {
    return false;
  }
};

/// 64-byte-aligned float storage shared by tables and moment buffers.
using AlignedFloatVector = std::vector<float, AlignedAllocator<float>>;

/// Contiguous rows × stride float matrix with row views over the logical
/// width.
class EmbeddingTable {
 public:
  EmbeddingTable() = default;

  /// Allocates a zero-initialised table. `pad_lanes` rounds the row
  /// stride up to that many floats (1 = compact legacy layout;
  /// simd::kPadLanes = SIMD-padded layout).
  EmbeddingTable(int32_t rows, int width, int pad_lanes = 1)
      : rows_(rows),
        width_(width),
        stride_(ComputeStride(width, pad_lanes)),
        data_(static_cast<size_t>(rows) * stride_) {
    CHECK_GE(rows, 0);
  }

  int32_t rows() const { return rows_; }
  /// Floats per row that carry model state (the scorer-facing width).
  int width() const { return width_; }
  /// Floats per row actually allocated; stride() - width() are padding.
  int stride() const { return stride_; }
  bool padded() const { return stride_ != width_; }

  /// Raw storage size in floats, rows * stride (includes padding). Use
  /// logical_size() for the trainable-parameter count.
  size_t size() const { return data_.size(); }
  size_t logical_size() const {
    return static_cast<size_t>(rows_) * width_;
  }

  float* Row(int32_t i) {
    CHECK_GE(i, 0);
    CHECK_LT(i, rows_);
    return data_.data() + static_cast<size_t>(i) * stride_;
  }
  const float* Row(int32_t i) const {
    CHECK_GE(i, 0);
    CHECK_LT(i, rows_);
    return data_.data() + static_cast<size_t>(i) * stride_;
  }

  /// Raw storage (used by optimizers for moment buffers of equal shape
  /// and for whole-table copies between layout-identical tables). Rows
  /// are NOT adjacent when padded() — go through Row() for row access.
  AlignedFloatVector& data() { return data_; }
  const AlignedFloatVector& data() const { return data_; }

  /// Copies another table's logical contents row-by-row. Layout-safe:
  /// the tables may have different strides, but must agree on rows and
  /// logical width (CHECKed). This table's padding is left untouched.
  void CopyLogicalFrom(const EmbeddingTable& other);

  /// The logical contents as one compact rows × width buffer — the
  /// layout-independent image tests compare across strides.
  std::vector<float> LogicalCopy() const;

  /// Scales row i so its L2 norm over the first `prefix` floats is at
  /// most `max_norm` (no-op when already inside the ball).
  void ProjectRowToL2Ball(int32_t i, int prefix, float max_norm);

  /// L2 norm of the first `prefix` floats of row i.
  float RowNorm(int32_t i, int prefix) const;

 private:
  // Validates shape arguments before the stride/allocation-size
  // arithmetic in the member-init list can misuse them.
  static int ComputeStride(int width, int pad_lanes) {
    CHECK_GT(width, 0);
    CHECK_GE(pad_lanes, 1);
    return (width + pad_lanes - 1) / pad_lanes * pad_lanes;
  }

  int32_t rows_ = 0;
  int width_ = 0;
  int stride_ = 0;
  AlignedFloatVector data_;
};

}  // namespace nsc

#endif  // NSCACHING_EMBEDDING_EMBEDDING_TABLE_H_
