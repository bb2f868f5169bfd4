#include "embedding/initializer.h"

#include <cmath>

namespace nsc {

namespace {

// All initializers walk rows × logical width (never the raw storage), so
// a padded and a compact table consume the identical RNG stream and end
// up with identical logical contents; padding floats stay zero.
template <typename Fn>
void FillRows(EmbeddingTable* table, Fn&& fill) {
  const int width = table->width();
  for (int32_t r = 0; r < table->rows(); ++r) {
    float* row = table->Row(r);
    for (int i = 0; i < width; ++i) row[i] = fill();
  }
}

}  // namespace

void XavierUniformInit(EmbeddingTable* table, Rng* rng) {
  const double bound = std::sqrt(6.0 / (2.0 * table->width()));
  UniformInit(table, -bound, bound, rng);
}

void GaussianInit(EmbeddingTable* table, double stddev, Rng* rng) {
  FillRows(table, [&] {
    return static_cast<float>(rng->Gaussian(0.0, stddev));
  });
}

void UniformInit(EmbeddingTable* table, double lo, double hi, Rng* rng) {
  FillRows(table, [&] { return static_cast<float>(rng->Uniform(lo, hi)); });
}

}  // namespace nsc
