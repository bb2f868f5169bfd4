#include "sampler/kbgan_sampler.h"

#include <vector>

#include "embedding/scoring_function.h"
#include "util/logging.h"
#include "util/math.h"

namespace nsc {

KbganSampler::KbganSampler(int32_t num_entities, int32_t num_relations,
                           const KgIndex* index, const KbganConfig& config)
    : config_(config), index_(index), side_chooser_(index) {
  generator_ = std::make_unique<KgeModel>(num_entities, num_relations,
                                          config.generator_dim,
                                          MakeScoringFunction("transe"));
  Rng init_rng(config.seed);
  generator_->InitXavier(&init_rng);
  gen_entity_opt_ = std::make_unique<SgdOptimizer>(config.generator_lr);
  gen_relation_opt_ = std::make_unique<SgdOptimizer>(config.generator_lr);
}

void KbganSampler::WarmStartGenerator(const KgeModel& pretrained) {
  CHECK_EQ(pretrained.dim(), generator_->dim())
      << "generator warm start requires matching dimension";
  CHECK(pretrained.scorer().name() == "transe");
  // Row-wise logical copy: safe whatever layouts (padded/compact) the two
  // models use, and CHECKs the row counts actually match.
  generator_->entity_table().CopyLogicalFrom(pretrained.entity_table());
  generator_->relation_table().CopyLogicalFrom(pretrained.relation_table());
}

NegativeSample KbganSampler::Sample(const Triple& pos, Rng* rng) {
  Pending p;
  const int n = config_.candidate_set_size;
  p.candidates.resize(n);
  for (int i = 0; i < n; ++i) {
    p.candidates[i] = static_cast<EntityId>(
        rng->UniformInt(static_cast<uint64_t>(generator_->num_entities())));
  }
  p.side = side_chooser_.Choose(pos, rng);

  std::vector<double> scores;
  if (p.side == CorruptionSide::kHead) {
    generator_->ScoreHeadCandidates(pos.r, pos.t, p.candidates, &scores);
  } else {
    generator_->ScoreTailCandidates(pos.h, pos.r, p.candidates, &scores);
  }
  SoftmaxInPlace(&scores);
  p.chosen = static_cast<int>(rng->Categorical(scores));
  p.probs = std::move(scores);
  p.pos = pos;

  NegativeSample out;
  out.side = p.side;
  out.triple = Corrupt(pos, p.side, p.candidates[p.chosen]);

  // Bound the queue in case a caller samples without ever feeding back
  // (a whole mini-batch in flight is normal; unbounded growth is not).
  // The trainer delivers every batch's rewards before the next batch, so
  // eviction only fires for batches beyond this bound — warn, since the
  // evicted draws' REINFORCE updates are lost.
  constexpr size_t kMaxPendingDraws = 65536;
  if (pending_.size() >= kMaxPendingDraws) {
    if (!eviction_warned_) {
      LOG_WARNING << "KBGAN pending-reward queue exceeded "
                  << kMaxPendingDraws
                  << " draws; oldest draws lose their generator updates "
                     "(batch_size larger than the queue bound?)";
      eviction_warned_ = true;
    }
    pending_.pop_front();
  }
  pending_.push_back(std::move(p));
  return out;
}

void KbganSampler::Feedback(const Triple& pos, const NegativeSample& neg,
                            double neg_score) {
  (void)neg;
  // Rewards arrive in draw order. Find this reward's draw (normally the
  // front); older entries before it never got theirs and are dropped. If
  // no entry matches (e.g. the draw was evicted by the queue bound),
  // leave the queue untouched so younger draws still get their rewards.
  size_t match = 0;
  while (match < pending_.size() && !(pending_[match].pos == pos)) ++match;
  if (match == pending_.size()) return;
  const Pending pending = std::move(pending_[match]);
  pending_.erase(pending_.begin(), pending_.begin() + match + 1);

  // Reward = discriminator plausibility of the generated negative; high
  // reward means the generator found a hard negative.
  if (!baseline_initialized_) {
    baseline_ = neg_score;
    baseline_initialized_ = true;
  }
  const double advantage = neg_score - baseline_;
  baseline_ = config_.baseline_decay * baseline_ +
              (1.0 - config_.baseline_decay) * neg_score;

  // ∂(−E[reward])/∂gen_score_i = −advantage · (1{i=chosen} − p_i).
  // Backprop that through the generator's TransE scorer per candidate and
  // apply SGD. The fixed (r, t) / (h, r) rows accumulate across candidates.
  const int dim = generator_->dim();
  const ScoringFunction& scorer = generator_->scorer();
  EmbeddingTable& ent = generator_->entity_table();
  EmbeddingTable& rel = generator_->relation_table();

  std::vector<float> g_cand(ent.width());
  std::vector<float> g_rel(rel.width(), 0.0f);
  std::vector<float> g_fixed(ent.width(), 0.0f);

  const bool head_side = pending.side == CorruptionSide::kHead;
  const EntityId fixed_entity = head_side ? pos.t : pos.h;
  const float* fixed_row = ent.Row(fixed_entity);
  const float* rel_row = rel.Row(pos.r);

  for (size_t i = 0; i < pending.candidates.size(); ++i) {
    const double dlogp =
        (static_cast<int>(i) == pending.chosen ? 1.0 : 0.0) - pending.probs[i];
    const float coeff = static_cast<float>(-advantage * dlogp);
    if (coeff == 0.0f) continue;
    std::fill(g_cand.begin(), g_cand.end(), 0.0f);
    const float* cand_row = ent.Row(pending.candidates[i]);
    if (head_side) {
      scorer.Backward(cand_row, rel_row, fixed_row, dim, coeff, g_cand.data(),
                      g_rel.data(), g_fixed.data());
    } else {
      scorer.Backward(fixed_row, rel_row, cand_row, dim, coeff, g_fixed.data(),
                      g_rel.data(), g_cand.data());
    }
    gen_entity_opt_->Apply(&ent, pending.candidates[i], g_cand.data());
  }
  gen_entity_opt_->Apply(&ent, fixed_entity, g_fixed.data());
  gen_relation_opt_->Apply(&rel, pos.r, g_rel.data());
}

}  // namespace nsc
