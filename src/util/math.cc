#include "util/math.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "util/logging.h"

namespace nsc {

double LogSumExp(const std::vector<double>& x) {
  if (x.empty()) return -std::numeric_limits<double>::infinity();
  const double m = *std::max_element(x.begin(), x.end());
  if (!std::isfinite(m)) return m;
  double sum = 0.0;
  for (double v : x) sum += std::exp(v - m);
  return m + std::log(sum);
}

void SoftmaxInPlace(std::vector<double>* x) {
  if (x->empty()) return;
  const double m = *std::max_element(x->begin(), x->end());
  double sum = 0.0;
  for (double& v : *x) {
    v = std::exp(v - m);
    sum += v;
  }
  for (double& v : *x) v /= sum;
}

double Sigmoid(double x) {
  if (x >= 0) {
    const double e = std::exp(-x);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(x);
  return e / (1.0 + e);
}

double Log1pExp(double x) {
  if (x > 35.0) return x;
  if (x < -35.0) return std::exp(x);
  return std::log1p(std::exp(x));
}

float Dot(const float* a, const float* b, int n) {
  float s = 0.0f;
  for (int i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

float L2Norm(const float* a, int n) { return std::sqrt(Dot(a, a, n)); }

float L1Norm(const float* a, int n) {
  float s = 0.0f;
  for (int i = 0; i < n; ++i) s += std::fabs(a[i]);
  return s;
}

void Axpy(float alpha, const float* x, float* y, int n) {
  for (int i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void Scale(float alpha, float* a, int n) {
  for (int i = 0; i < n; ++i) a[i] *= alpha;
}

void GumbelTopK(const std::vector<double>& logits, int k, Rng* rng,
                std::vector<int>* out) {
  CHECK_GE(k, 0);
  CHECK_LE(static_cast<size_t>(k), logits.size());
  static thread_local std::vector<std::pair<double, int>> keyed;
  keyed.resize(logits.size());
  for (size_t i = 0; i < logits.size(); ++i) {
    keyed[i] = {logits[i] + rng->Gumbel(), static_cast<int>(i)};
  }
  // Select the k largest keys, then order only those. The keys are
  // distinct with probability 1, and then this is exactly the prefix a
  // full sort would give.
  const auto larger = [](const std::pair<double, int>& a,
                         const std::pair<double, int>& b) {
    return a.first > b.first;
  };
  if (static_cast<size_t>(k) < keyed.size()) {
    std::nth_element(keyed.begin(), keyed.begin() + k, keyed.end(), larger);
  }
  std::sort(keyed.begin(), keyed.begin() + k, larger);
  out->resize(k);
  for (int i = 0; i < k; ++i) (*out)[i] = keyed[i].second;
}

std::vector<int> TopK(const std::vector<double>& values, int k) {
  CHECK_LE(static_cast<size_t>(k), values.size());
  std::vector<int> idx(values.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::partial_sort(idx.begin(), idx.begin() + k, idx.end(),
                    [&](int a, int b) {
                      if (values[a] != values[b]) return values[a] > values[b];
                      return a < b;
                    });
  idx.resize(k);
  return idx;
}

}  // namespace nsc
