// Negative-sampling interface (step 5 of Algorithm 1 / steps 5-8 of
// Algorithm 2 in the paper). Given a positive triple (h, r, t), a sampler
// returns one corrupted triple (h̄, r, t) or (h, r, t̄) from the negative
// set S̄ of Eq. (5). Implementations:
//   UniformSampler     — fixed uniform distribution [7];
//   BernoulliSampler   — fixed, relation-cardinality aware [42];
//   KbganSampler       — GAN generator with REINFORCE [9];
//   NSCachingSampler   — the paper's cache-based method (src/core/).
#ifndef NSCACHING_SAMPLER_NEGATIVE_SAMPLER_H_
#define NSCACHING_SAMPLER_NEGATIVE_SAMPLER_H_

#include <cstddef>
#include <string>

#include "kg/kg_index.h"
#include "kg/types.h"
#include "util/rng.h"

namespace nsc {

/// One sampled negative triple plus which side was corrupted.
struct NegativeSample {
  Triple triple;
  CorruptionSide side = CorruptionSide::kHead;
};

/// Stateful negative sampler. Samplers needing the current embedding
/// scores hold a pointer to the model they serve. Unless
/// thread_safe_sampling() says otherwise, all methods are called from the
/// (single) training thread.
class NegativeSampler {
 public:
  virtual ~NegativeSampler() = default;

  virtual std::string name() const = 0;

  /// Draws one negative for `pos`.
  virtual NegativeSample Sample(const Triple& pos, Rng* rng) = 0;

  /// Draws one negative for each of pos[0..n) into out[0..n). The default
  /// loops over Sample() in index order, so it consumes `rng` exactly like
  /// n sequential Sample() calls: the fused trainer's per-batch pre-pass
  /// draws a stateless sampler's negatives exactly as the pair loop does.
  virtual void SampleBatch(const Triple* pos, size_t n, Rng* rng,
                           NegativeSample* out);

  /// True when Sample() depends only on (pos, rng) — no mutable sampler
  /// state and no model parameters (uniform/Bernoulli), so sampling
  /// ahead of parameter updates changes no draw.
  /// Model-coupled samplers (NSCaching, KBGAN) must keep the default
  /// `false`.
  virtual bool stateless_sampling() const { return false; }

  /// True when Sample() may be called concurrently from multiple worker
  /// threads (each with its own Rng stream). The parallel trainer then
  /// routes the sampler through the full-Hogwild path — workers draw
  /// their own negatives inline — instead of the serial per-batch
  /// pre-pass. Stateless samplers are implicitly thread-safe (the
  /// default); stateful samplers must opt in by guarding their state
  /// (NSCaching's lock-striped caches + atomic stats do; KBGAN's
  /// generator does not).
  virtual bool thread_safe_sampling() const { return stateless_sampling(); }

  /// Post-update feedback: the discriminator's score of the sampled
  /// negative. KBGAN uses it as the REINFORCE reward; others ignore it.
  virtual void Feedback(const Triple& pos, const NegativeSample& neg,
                        double neg_score) {
    (void)pos;
    (void)neg;
    (void)neg_score;
  }

  /// Called at the start of every epoch (lazy cache updates key off this).
  virtual void BeginEpoch(int epoch) { (void)epoch; }
};

/// Chooses which side of a positive triple to corrupt. "uniform" flips a
/// fair coin; "bernoulli" uses the tph/(tph+hpt) rule of [42], which
/// corrupts the *head* of one-to-many relations more often to reduce
/// false negatives. The paper applies the Bernoulli rule inside KBGAN and
/// NSCaching as well (§IV-B1).
class SideChooser {
 public:
  /// Fair-coin chooser.
  SideChooser() = default;

  /// Bernoulli chooser backed by relation statistics from `index` (not
  /// owned; must outlive the chooser).
  explicit SideChooser(const KgIndex* index) : index_(index) {}

  CorruptionSide Choose(const Triple& pos, Rng* rng) const {
    const double p_head =
        index_ == nullptr ? 0.5 : index_->HeadReplaceProbability(pos.r);
    return rng->Bernoulli(p_head) ? CorruptionSide::kHead
                                  : CorruptionSide::kTail;
  }

  bool is_bernoulli() const { return index_ != nullptr; }

 private:
  const KgIndex* index_ = nullptr;
};

/// Applies a corruption: replaces the chosen side of `pos` with `entity`.
Triple Corrupt(const Triple& pos, CorruptionSide side, EntityId entity);

}  // namespace nsc

#endif  // NSCACHING_SAMPLER_NEGATIVE_SAMPLER_H_
