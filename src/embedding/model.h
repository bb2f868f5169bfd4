// KgeModel: the trainable state of one KG embedding model — an entity
// table, a relation table and a scoring function that interprets their
// rows. This is the "discriminator" that every negative sampler in the
// library scores candidates against.
#ifndef NSCACHING_EMBEDDING_MODEL_H_
#define NSCACHING_EMBEDDING_MODEL_H_

#include <memory>
#include <utility>
#include <vector>

#include "embedding/embedding_table.h"
#include "embedding/scoring_function.h"
#include "kg/types.h"
#include "util/rng.h"

namespace nsc {

/// Row layout of a model's embedding tables. kPadded (the default) rounds
/// each row stride up to simd::kPadLanes floats so rows are 64-byte
/// aligned for the SIMD scorer kernels; kCompact is the legacy
/// stride == width layout. Logical contents (and checkpoints, RNG
/// streams, training trajectories) are identical under both.
enum class TableLayout { kPadded, kCompact };

/// Entity/relation embedding tables bound to a scorer.
class KgeModel {
 public:
  /// Allocates tables sized by the scorer's widths; rows start at zero —
  /// call InitXavier (or copy from a pretrained model) before training.
  KgeModel(int32_t num_entities, int32_t num_relations, int dim,
           std::unique_ptr<ScoringFunction> scorer,
           TableLayout layout = TableLayout::kPadded);

  /// Adopts externally built tables (Clone, future mmap loaders).
  /// CHECK-fails unless each table's logical width matches the width the
  /// scorer declares for `dim` — a scorer must never interpret rows of
  /// the wrong shape.
  KgeModel(int dim, std::unique_ptr<ScoringFunction> scorer,
           EmbeddingTable entities, EmbeddingTable relations);

  /// Xavier-uniform initialisation of both tables (paper's "from scratch").
  void InitXavier(Rng* rng);

  /// Plausibility of (h, r, t) under the current parameters.
  double Score(const Triple& x) const {
    return Score(x.h, x.r, x.t);
  }
  double Score(EntityId h, RelationId r, EntityId t) const;

  /// Scores n triples through the scorer's batched kernel (one virtual
  /// dispatch per batch): out[i] = Score(triples[i]). The fused trainer
  /// path scores its mini-batch sides the same way, but builds the row
  /// pointers itself (it reuses them for BackwardBatch).
  void ScoreBatch(const Triple* triples, size_t n, double* out) const;
  void ScoreBatch(const std::vector<Triple>& triples,
                  std::vector<double>* out) const;

  /// Scores every entity as a candidate head for fixed (r, t) in one
  /// 1-vs-all kernel sweep over the entity table:
  /// out[e] = f(e, r, t) for e in [0, num_entities). `out` must hold
  /// num_entities() doubles. This is the link-prediction ranking hot
  /// path: no per-candidate pointer arrays, one virtual dispatch per
  /// sweep (ScoringFunction::ScoreAllCandidates).
  void ScoreAllHeads(RelationId r, EntityId t, double* out) const;

  /// Scores every entity as a candidate tail for fixed (h, r).
  void ScoreAllTails(EntityId h, RelationId r, double* out) const;

  /// Sweeps the entity sub-range [first, first + count) as candidate
  /// heads for fixed (r, t): out[i] = f(first + i, r, t). Same kernels
  /// as ScoreAllHeads restricted to a row slice — per-candidate scores
  /// are range-independent, so out[i] is bit-identical to the full
  /// sweep's entry first + i. This is the tile primitive of the
  /// evaluator's Hits@K early-exit mode.
  void ScoreHeadRange(RelationId r, EntityId t, std::size_t first,
                      std::size_t count, double* out) const;

  /// Tail-side sub-range sweep: out[i] = f(h, r, first + i).
  void ScoreTailRange(EntityId h, RelationId r, std::size_t first,
                      std::size_t count, double* out) const;

  /// Retrieves the k best-scoring candidate heads for fixed (r, t)
  /// without materializing the num_entities() score buffer
  /// (ScoringFunction::TopKCandidates — fused sweep→top-K). `out` is
  /// sorted by (score desc, EntityId asc) and bit-identical to sorting a
  /// full ScoreAllHeads buffer the same way; its entries' `index` fields
  /// are EntityIds. k may exceed num_entities() (all entities returned).
  /// `stats`, when non-null, receives the sweep's tile-pruning counters.
  void TopKHeads(RelationId r, EntityId t, std::size_t k,
                 std::vector<TopKEntry>* out,
                 TopKSweepStats* stats = nullptr) const;

  /// The k best-scoring candidate tails for fixed (h, r).
  void TopKTails(EntityId h, RelationId r, std::size_t k,
                 std::vector<TopKEntry>* out,
                 TopKSweepStats* stats = nullptr) const;

  /// Batched retrieval: answers every (r, t) head query in as few
  /// passes over the entity table as the kernel can manage — the SIMD
  /// scorers score each 256-candidate tile for every query while it is
  /// L1-resident, so the table streams from memory once instead of
  /// queries.size() times (ScoringFunction::TopKCandidatesBatch).
  /// (*out)[q] is bit-identical to TopKHeads(queries[q]..., k) — the
  /// batching reorders which (tile, query) pair is scored when, never
  /// any per-query arithmetic. `stats`, when non-null, receives the
  /// tile counters summed over all queries.
  void TopKHeadsBatch(
      const std::vector<std::pair<RelationId, EntityId>>& queries,
      std::size_t k, std::vector<std::vector<TopKEntry>>* out,
      TopKSweepStats* stats = nullptr) const;

  /// Batched tail-side retrieval over (h, r) queries.
  void TopKTailsBatch(
      const std::vector<std::pair<EntityId, RelationId>>& queries,
      std::size_t k, std::vector<std::vector<TopKEntry>>* out,
      TopKSweepStats* stats = nullptr) const;

  /// Scores every candidate head h̄ for fixed (r, t): out[i] = f(c[i], r, t).
  /// For SIMD-accelerated scorers the candidate rows are gathered into
  /// one contiguous slab and swept through
  /// ScoringFunction::ScoreAllCandidates — this is NSCaching's cache
  /// refresh hot path (the N1+N2 candidate scoring of Algorithm 3), the
  /// second consumer of the 1-vs-all primitive. Scorers on the generic
  /// loops keep the zero-copy pointer-array ScoreBatch broadcast (the
  /// gather would buy them nothing).
  void ScoreHeadCandidates(RelationId r, EntityId t,
                           const std::vector<EntityId>& candidates,
                           std::vector<double>* out) const;

  /// Scores every candidate tail t̄ for fixed (h, r).
  void ScoreTailCandidates(EntityId h, RelationId r,
                           const std::vector<EntityId>& candidates,
                           std::vector<double>* out) const;

  /// Retrieves the k best-scoring heads among `candidates` for fixed
  /// (r, t) — the top-K counterpart of ScoreHeadCandidates, and the
  /// cache updater's kTop refresh primitive. `out` entries' `index`
  /// fields are *positions into `candidates`* (not EntityIds), ordered
  /// (score desc, position asc) — exactly the first k of
  /// util TopK(scores of ScoreHeadCandidates). Candidate rows are
  /// gathered into the thread-local slab for every scorer: the top-K
  /// path has no full score buffer for a pointer-array broadcast to
  /// fill, and candidate pools are small.
  void TopKHeadCandidates(RelationId r, EntityId t,
                          const std::vector<EntityId>& candidates,
                          std::size_t k, std::vector<TopKEntry>* out,
                          TopKSweepStats* stats = nullptr) const;

  /// The k best-scoring tails among `candidates` for fixed (h, r).
  void TopKTailCandidates(EntityId h, RelationId r,
                          const std::vector<EntityId>& candidates,
                          std::size_t k, std::vector<TopKEntry>* out,
                          TopKSweepStats* stats = nullptr) const;

  /// Applies the scorer's hard constraints to one entity / relation row
  /// (called by the trainer after each optimizer step on touched rows).
  void ProjectEntity(EntityId e) {
    scorer_->ProjectEntityRow(entities_.Row(e), dim_);
  }
  void ProjectRelation(RelationId r) {
    scorer_->ProjectRelationRow(relations_.Row(r), dim_);
  }

  EmbeddingTable& entity_table() { return entities_; }
  const EmbeddingTable& entity_table() const { return entities_; }
  EmbeddingTable& relation_table() { return relations_; }
  const EmbeddingTable& relation_table() const { return relations_; }

  const ScoringFunction& scorer() const { return *scorer_; }
  int dim() const { return dim_; }
  int32_t num_entities() const { return entities_.rows(); }
  int32_t num_relations() const { return relations_.rows(); }

  /// Total trainable floats — the "parameters" column of Table I.
  /// Counts logical widths only; layout padding is not a parameter.
  size_t num_parameters() const {
    return entities_.logical_size() + relations_.logical_size();
  }

  /// Deep copy (used to snapshot the best-validation model); preserves
  /// the table layout.
  KgeModel Clone() const;

  /// Overwrites this model's parameters with `other`'s logical contents —
  /// the serving layer's snapshot copy hook (EmbeddingSnapshot reuses its
  /// buffers across publications instead of reallocating). Layout-safe:
  /// strides may differ, but the scorer name, dim and
  /// both table shapes must match (CHECKed). Padding is left untouched,
  /// so the copy is bit-identical at the logical level regardless of
  /// either side's layout.
  void CopyParametersFrom(const KgeModel& other);

 private:
  int dim_;
  std::unique_ptr<ScoringFunction> scorer_;
  EmbeddingTable entities_;
  EmbeddingTable relations_;
};

}  // namespace nsc

#endif  // NSCACHING_EMBEDDING_MODEL_H_
