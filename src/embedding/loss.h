// Pairwise training losses of the paper's unified framework (§II-A):
//   Eq. (1) margin ranking, for translational distance models;
//   Eq. (2) logistic, for semantic matching models.
//
// The interface is batch-first: the primary contract is ComputeBatch,
// which consumes the score vectors of a whole mini-batch's positives and
// negatives (as produced by ScoringFunction::ScoreBatch) and fills
// per-pair losses and ∂loss/∂score vectors — the shape the fused trainer
// path feeds straight into BackwardBatch. A scalar Compute(pos, neg)
// adapter wraps a one-pair batch so single-pair callers (and the
// trainer's bit-for-bit pair loop) keep working unchanged; both margin
// and logistic batches apply exactly the per-pair scalar arithmetic, so
// batch and scalar results are bit-identical.
#ifndef NSCACHING_EMBEDDING_LOSS_H_
#define NSCACHING_EMBEDDING_LOSS_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "embedding/scoring_function.h"
#include "util/span.h"

namespace nsc {

/// Losses at or below this threshold count as zero for the non-zero-loss
/// ratio (NZL, Figures 7/8). Shared by Trainer::Accumulate and the
/// analysis module's DynamicsTracker so the two NZL measurements can
/// never drift apart.
inline constexpr double kNonzeroLossThreshold = 1e-12;

/// Loss value and its gradient w.r.t. the two scores of one pair.
struct LossGrad {
  double loss = 0.0;
  double d_pos = 0.0;  // ∂loss/∂f(pos)
  double d_neg = 0.0;  // ∂loss/∂f(neg)
};

/// Reusable output buffer of Loss::ComputeBatch: per-pair losses and
/// score gradients, index-aligned with the input score spans. Owns its
/// storage so callers can reuse one instance across batches (capacity is
/// retained; no steady-state allocation).
struct LossBatchGrad {
  std::vector<double> loss;
  std::vector<double> d_pos;  // ∂loss[i]/∂f(pos[i])
  std::vector<double> d_neg;  // ∂loss[i]/∂f(neg[i])

  void Resize(std::size_t n) {
    loss.resize(n);
    d_pos.resize(n);
    d_neg.resize(n);
  }
  std::size_t size() const { return loss.size(); }
};

/// Pairwise loss over (positive, negative) score vectors.
class Loss {
 public:
  virtual ~Loss() = default;
  virtual std::string name() const = 0;

  /// Primary contract: out->loss/d_pos/d_neg[i] are the loss and score
  /// gradients of the pair (pos_scores[i], neg_scores[i]). The spans must
  /// be the same length; `out` is resized to it. Implementations apply
  /// the identical scalar arithmetic per pair, so ComputeBatch over a
  /// one-pair span is bit-identical to Compute.
  virtual void ComputeBatch(Span<const double> pos_scores,
                            Span<const double> neg_scores,
                            LossBatchGrad* out) const = 0;

  /// Scalar adapter over a one-pair batch, for single-pair callers (the
  /// trainer's pair loop, probes, tests).
  LossGrad Compute(double pos_score, double neg_score) const;
};

/// Eq. (1): [γ − f(pos) + f(neg)]₊. Gradient is zero once the pair is
/// separated by the margin — the vanishing-gradient regime NSCaching is
/// designed to escape.
class MarginRankingLoss : public Loss {
 public:
  explicit MarginRankingLoss(double margin) : margin_(margin) {}
  std::string name() const override { return "margin"; }
  void ComputeBatch(Span<const double> pos_scores,
                    Span<const double> neg_scores,
                    LossBatchGrad* out) const override;
  double margin() const { return margin_; }

 private:
  double margin_;
};

/// Eq. (2): ℓ(+1, f(pos)) + ℓ(−1, f(neg)) with ℓ(α, β) = log(1+exp(−αβ)).
class LogisticLoss : public Loss {
 public:
  std::string name() const override { return "logistic"; }
  void ComputeBatch(Span<const double> pos_scores,
                    Span<const double> neg_scores,
                    LossBatchGrad* out) const override;
};

/// The paper's default pairing: margin loss for translational scorers,
/// logistic loss for semantic matching scorers.
std::unique_ptr<Loss> MakeDefaultLoss(const ScoringFunction& scorer,
                                      double margin);

}  // namespace nsc

#endif  // NSCACHING_EMBEDDING_LOSS_H_
