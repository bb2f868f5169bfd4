// Small numeric kernels shared across the embedding and sampling code:
// stable softmax / logsumexp, vector primitives, and Gumbel-top-k sampling
// without replacement (used by the NSCaching importance-sampling cache
// update, Algorithm 3 of the paper).
#ifndef NSCACHING_UTIL_MATH_H_
#define NSCACHING_UTIL_MATH_H_

#include <cstddef>
#include <vector>

#include "util/rng.h"

namespace nsc {

/// Numerically stable log(sum_i exp(x_i)). Returns -inf for empty input.
double LogSumExp(const std::vector<double>& x);

/// Replaces x by softmax(x) with max-subtraction for stability.
void SoftmaxInPlace(std::vector<double>* x);

/// Logistic sigmoid 1/(1+exp(-x)), stable for large |x|.
double Sigmoid(double x);

/// log(1 + exp(x)), stable for large |x| (softplus).
double Log1pExp(double x);

/// Dot product of two length-n float arrays.
float Dot(const float* a, const float* b, int n);

/// Euclidean norm of a length-n float array.
float L2Norm(const float* a, int n);

/// Sum_i |a_i|.
float L1Norm(const float* a, int n);

/// y += alpha * x for length-n arrays.
void Axpy(float alpha, const float* x, float* y, int n);

/// Scales a length-n array in place.
void Scale(float alpha, float* a, int n);

/// Samples k distinct indices from {0..logits.size()-1} with probability
/// proportional to exp(logits[i]), *without replacement*, via the
/// Gumbel-top-k trick: argtop-k of logits[i] + Gumbel noise. Requires
/// k <= logits.size(). Draws one Gumbel per logit, in index order, and
/// writes the indices to `out` (resized to k) ordered by perturbed key,
/// largest first. The perturbed keys live in thread-local scratch, so
/// with a reused `out` a call allocates nothing after warm-up — this is
/// the NSCaching refresh's survivor selection.
void GumbelTopK(const std::vector<double>& logits, int k, Rng* rng,
                std::vector<int>* out);

/// Deterministic top-k: indices of the k largest values (ties broken by
/// lower index). Requires k <= values.size().
std::vector<int> TopK(const std::vector<double>& values, int k);

}  // namespace nsc

#endif  // NSCACHING_UTIL_MATH_H_
