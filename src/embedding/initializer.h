// Embedding initialization schemes. The paper initialises with the Xavier
// uniform initializer [14] when training from scratch.
#ifndef NSCACHING_EMBEDDING_INITIALIZER_H_
#define NSCACHING_EMBEDDING_INITIALIZER_H_

#include "embedding/embedding_table.h"
#include "util/rng.h"

namespace nsc {

// Every initializer walks rows in order over the logical width, so a
// given RNG produces identical logical contents regardless of layout —
// padded or compact.

/// Fills the table with U(-b, b), b = sqrt(6 / (fan_in + fan_out)) where
/// both fans equal the row width (the convention for embedding lookups).
void XavierUniformInit(EmbeddingTable* table, Rng* rng);

/// Fills the table with N(0, stddev^2).
void GaussianInit(EmbeddingTable* table, double stddev, Rng* rng);

/// Fills the table with U(lo, hi).
void UniformInit(EmbeddingTable* table, double lo, double hi, Rng* rng);

}  // namespace nsc

#endif  // NSCACHING_EMBEDDING_INITIALIZER_H_
