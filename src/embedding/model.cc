#include "embedding/model.h"

#include <cstring>

#include "embedding/initializer.h"
#include "util/logging.h"

namespace nsc {

namespace {

// Reused pointer-array scratch for the batched kernels. thread_local so
// parallel evaluation and Hogwild workers don't race; after warm-up the
// candidate-scoring hot path (NSCaching's cache refresh runs it twice
// per trained triple) is allocation-free.
struct BatchScratch {
  std::vector<const float*> h, r, t;
};

BatchScratch& Scratch() {
  static thread_local BatchScratch scratch;
  return scratch;
}

// Contiguous row slab for the candidate-list sweeps (cache refresh):
// candidate rows are gathered here so ScoreAllCandidates streams one
// slab instead of chasing per-candidate pointers. Allocation-free after
// warm-up, like the pointer scratch.
AlignedFloatVector& GatherScratch() {
  static thread_local AlignedFloatVector rows;
  return rows;
}

// Bounded heap reused across top-K retrievals (Reset(k) clears it but
// keeps the capacity); thread_local for the same reason as the rest.
TopKCollector& Collector() {
  static thread_local TopKCollector collector;
  return collector;
}

}  // namespace

KgeModel::KgeModel(int32_t num_entities, int32_t num_relations, int dim,
                   std::unique_ptr<ScoringFunction> scorer,
                   TableLayout layout)
    : dim_(dim), scorer_(std::move(scorer)) {
  CHECK(scorer_ != nullptr);
  CHECK_GT(dim, 0);
  const int pad = layout == TableLayout::kPadded ? simd::kPadLanes : 1;
  entities_ = EmbeddingTable(num_entities, scorer_->entity_width(dim), pad);
  relations_ = EmbeddingTable(num_relations, scorer_->relation_width(dim), pad);
}

KgeModel::KgeModel(int dim, std::unique_ptr<ScoringFunction> scorer,
                   EmbeddingTable entities, EmbeddingTable relations)
    : dim_(dim),
      scorer_(std::move(scorer)),
      entities_(std::move(entities)),
      relations_(std::move(relations)) {
  CHECK(scorer_ != nullptr);
  CHECK_GT(dim, 0);
  CHECK_EQ(entities_.width(), scorer_->entity_width(dim))
      << "entity table width does not match what scorer " << scorer_->name()
      << " declares for dim " << dim;
  CHECK_EQ(relations_.width(), scorer_->relation_width(dim))
      << "relation table width does not match what scorer " << scorer_->name()
      << " declares for dim " << dim;
}

void KgeModel::InitXavier(Rng* rng) {
  XavierUniformInit(&entities_, rng);
  XavierUniformInit(&relations_, rng);
}

double KgeModel::Score(EntityId h, RelationId r, EntityId t) const {
  return scorer_->Score(entities_.Row(h), relations_.Row(r), entities_.Row(t),
                        dim_);
}

void KgeModel::ScoreBatch(const Triple* triples, size_t n, double* out) const {
  BatchScratch& s = Scratch();
  s.h.resize(n);
  s.r.resize(n);
  s.t.resize(n);
  for (size_t i = 0; i < n; ++i) {
    s.h[i] = entities_.Row(triples[i].h);
    s.r[i] = relations_.Row(triples[i].r);
    s.t[i] = entities_.Row(triples[i].t);
  }
  scorer_->ScoreBatch(s.h.data(), s.r.data(), s.t.data(), dim_, n, out);
}

void KgeModel::ScoreBatch(const std::vector<Triple>& triples,
                          std::vector<double>* out) const {
  out->resize(triples.size());
  ScoreBatch(triples.data(), triples.size(), out->data());
}

void KgeModel::ScoreAllHeads(RelationId r, EntityId t, double* out) const {
  ScoreHeadRange(r, t, 0, static_cast<std::size_t>(entities_.rows()), out);
}

void KgeModel::ScoreAllTails(EntityId h, RelationId r, double* out) const {
  ScoreTailRange(h, r, 0, static_cast<std::size_t>(entities_.rows()), out);
}

void KgeModel::ScoreHeadRange(RelationId r, EntityId t, std::size_t first,
                              std::size_t count, double* out) const {
  if (count == 0) return;
  CHECK_LE(first + count, static_cast<std::size_t>(entities_.rows()));
  scorer_->ScoreAllCandidates(
      CorruptionSide::kHead, entities_.Row(t), relations_.Row(r),
      entities_.Row(static_cast<int32_t>(first)),
      static_cast<size_t>(entities_.stride()), count, dim_, out);
}

void KgeModel::ScoreTailRange(EntityId h, RelationId r, std::size_t first,
                              std::size_t count, double* out) const {
  if (count == 0) return;
  CHECK_LE(first + count, static_cast<std::size_t>(entities_.rows()));
  scorer_->ScoreAllCandidates(
      CorruptionSide::kTail, entities_.Row(h), relations_.Row(r),
      entities_.Row(static_cast<int32_t>(first)),
      static_cast<size_t>(entities_.stride()), count, dim_, out);
}

void KgeModel::TopKHeads(RelationId r, EntityId t, std::size_t k,
                         std::vector<TopKEntry>* out,
                         TopKSweepStats* stats) const {
  TopKCollector& c = Collector();
  c.Reset(k);
  if (entities_.rows() > 0) {
    scorer_->TopKCandidates(CorruptionSide::kHead, entities_.Row(t),
                            relations_.Row(r), entities_.Row(0),
                            static_cast<size_t>(entities_.stride()),
                            static_cast<size_t>(entities_.rows()), dim_, &c);
  }
  if (stats != nullptr) *stats = c.stats();
  c.ExtractSorted(out);
}

void KgeModel::TopKTails(EntityId h, RelationId r, std::size_t k,
                         std::vector<TopKEntry>* out,
                         TopKSweepStats* stats) const {
  TopKCollector& c = Collector();
  c.Reset(k);
  if (entities_.rows() > 0) {
    scorer_->TopKCandidates(CorruptionSide::kTail, entities_.Row(h),
                            relations_.Row(r), entities_.Row(0),
                            static_cast<size_t>(entities_.stride()),
                            static_cast<size_t>(entities_.rows()), dim_, &c);
  }
  if (stats != nullptr) *stats = c.stats();
  c.ExtractSorted(out);
}

namespace {

// Shared body of TopKHeadsBatch/TopKTailsBatch: builds the parallel
// fixed-row and collector arrays and drives one TopKCandidatesBatch
// call over the full entity slab. `fixed_rows(q)` returns the
// (entity row, relation row) pair of query q.
template <typename FixedRowsFn>
void TopKBatchImpl(const ScoringFunction& scorer, CorruptionSide side,
                   const EmbeddingTable& entities, std::size_t nq,
                   FixedRowsFn fixed_rows, std::size_t k, int dim,
                   std::vector<std::vector<TopKEntry>>* out,
                   TopKSweepStats* stats) {
  out->resize(nq);
  if (stats != nullptr) *stats = TopKSweepStats{};
  if (nq == 0) return;
  std::vector<TopKCollector> collectors(nq);
  std::vector<TopKCollector*> collector_ptrs(nq);
  std::vector<const float*> fixed_e(nq);
  std::vector<const float*> fixed_r(nq);
  for (std::size_t q = 0; q < nq; ++q) {
    collectors[q].Reset(k);
    collector_ptrs[q] = &collectors[q];
    const auto rows = fixed_rows(q);
    fixed_e[q] = rows.first;
    fixed_r[q] = rows.second;
  }
  if (entities.rows() > 0) {
    scorer.TopKCandidatesBatch(side, fixed_e.data(), fixed_r.data(), nq,
                               entities.Row(0),
                               static_cast<size_t>(entities.stride()),
                               static_cast<size_t>(entities.rows()), dim,
                               collector_ptrs.data());
  }
  for (std::size_t q = 0; q < nq; ++q) {
    if (stats != nullptr) {
      stats->tiles += collectors[q].stats().tiles;
      stats->pruned_tiles += collectors[q].stats().pruned_tiles;
    }
    collectors[q].ExtractSorted(&(*out)[q]);
  }
}

}  // namespace

void KgeModel::TopKHeadsBatch(
    const std::vector<std::pair<RelationId, EntityId>>& queries, std::size_t k,
    std::vector<std::vector<TopKEntry>>* out, TopKSweepStats* stats) const {
  TopKBatchImpl(
      *scorer_, CorruptionSide::kHead, entities_, queries.size(),
      [&](std::size_t q) {
        return std::make_pair(entities_.Row(queries[q].second),
                              relations_.Row(queries[q].first));
      },
      k, dim_, out, stats);
}

void KgeModel::TopKTailsBatch(
    const std::vector<std::pair<EntityId, RelationId>>& queries, std::size_t k,
    std::vector<std::vector<TopKEntry>>* out, TopKSweepStats* stats) const {
  TopKBatchImpl(
      *scorer_, CorruptionSide::kTail, entities_, queries.size(),
      [&](std::size_t q) {
        return std::make_pair(entities_.Row(queries[q].first),
                              relations_.Row(queries[q].second));
      },
      k, dim_, out, stats);
}

namespace {

// Gathers `candidates`' entity rows into one contiguous slab (the sweep
// calling convention). Only the logical width is copied; sweeps never
// read a row past it, so stale floats between width and stride are fine.
const float* GatherCandidateRows(const EmbeddingTable& entities,
                                 const std::vector<EntityId>& candidates) {
  AlignedFloatVector& rows = GatherScratch();
  const size_t stride = entities.stride();
  rows.resize(candidates.size() * stride);
  for (size_t i = 0; i < candidates.size(); ++i) {
    std::memcpy(rows.data() + i * stride, entities.Row(candidates[i]),
                entities.width() * sizeof(float));
  }
  return rows.data();
}

}  // namespace

void KgeModel::ScoreHeadCandidates(RelationId r, EntityId t,
                                   const std::vector<EntityId>& candidates,
                                   std::vector<double>* out) const {
  const size_t n = candidates.size();
  out->resize(n);
  if (n == 0) return;
  if (scorer_->simd_accelerated()) {
    scorer_->ScoreAllCandidates(CorruptionSide::kHead, entities_.Row(t),
                                relations_.Row(r),
                                GatherCandidateRows(entities_, candidates),
                                static_cast<size_t>(entities_.stride()), n,
                                dim_, out->data());
    return;
  }
  // Non-SIMD scorers run the generic ScoreBatch loops either way, so the
  // gather copy would buy nothing — keep the zero-copy pointer-array
  // broadcast for them.
  BatchScratch& s = Scratch();
  s.h.resize(n);
  s.r.assign(n, relations_.Row(r));
  s.t.assign(n, entities_.Row(t));
  for (size_t i = 0; i < n; ++i) s.h[i] = entities_.Row(candidates[i]);
  scorer_->ScoreBatch(s.h.data(), s.r.data(), s.t.data(), dim_, n,
                      out->data());
}

void KgeModel::ScoreTailCandidates(EntityId h, RelationId r,
                                   const std::vector<EntityId>& candidates,
                                   std::vector<double>* out) const {
  const size_t n = candidates.size();
  out->resize(n);
  if (n == 0) return;
  if (scorer_->simd_accelerated()) {
    scorer_->ScoreAllCandidates(CorruptionSide::kTail, entities_.Row(h),
                                relations_.Row(r),
                                GatherCandidateRows(entities_, candidates),
                                static_cast<size_t>(entities_.stride()), n,
                                dim_, out->data());
    return;
  }
  BatchScratch& s = Scratch();
  s.h.assign(n, entities_.Row(h));
  s.r.assign(n, relations_.Row(r));
  s.t.resize(n);
  for (size_t i = 0; i < n; ++i) s.t[i] = entities_.Row(candidates[i]);
  scorer_->ScoreBatch(s.h.data(), s.r.data(), s.t.data(), dim_, n,
                      out->data());
}

void KgeModel::TopKHeadCandidates(RelationId r, EntityId t,
                                  const std::vector<EntityId>& candidates,
                                  std::size_t k, std::vector<TopKEntry>* out,
                                  TopKSweepStats* stats) const {
  TopKCollector& c = Collector();
  c.Reset(k);
  if (!candidates.empty()) {
    scorer_->TopKCandidates(CorruptionSide::kHead, entities_.Row(t),
                            relations_.Row(r),
                            GatherCandidateRows(entities_, candidates),
                            static_cast<size_t>(entities_.stride()),
                            candidates.size(), dim_, &c);
  }
  if (stats != nullptr) *stats = c.stats();
  c.ExtractSorted(out);
}

void KgeModel::TopKTailCandidates(EntityId h, RelationId r,
                                  const std::vector<EntityId>& candidates,
                                  std::size_t k, std::vector<TopKEntry>* out,
                                  TopKSweepStats* stats) const {
  TopKCollector& c = Collector();
  c.Reset(k);
  if (!candidates.empty()) {
    scorer_->TopKCandidates(CorruptionSide::kTail, entities_.Row(h),
                            relations_.Row(r),
                            GatherCandidateRows(entities_, candidates),
                            static_cast<size_t>(entities_.stride()),
                            candidates.size(), dim_, &c);
  }
  if (stats != nullptr) *stats = c.stats();
  c.ExtractSorted(out);
}

KgeModel KgeModel::Clone() const {
  // The adopting constructor takes exact table copies, so any layout
  // (including non-default strides) is preserved verbatim.
  return KgeModel(dim_, MakeScoringFunction(scorer_->name()), entities_,
                  relations_);
}

void KgeModel::CopyParametersFrom(const KgeModel& other) {
  CHECK(scorer_->name() == other.scorer().name())
      << "CopyParametersFrom across scorers: " << scorer_->name() << " vs "
      << other.scorer().name();
  CHECK_EQ(dim_, other.dim());
  entities_.CopyLogicalFrom(other.entities_);
  relations_.CopyLogicalFrom(other.relations_);
}

}  // namespace nsc
