// Scoring-function interface (Table III of the paper) and its registry.
//
// A scoring function f(h, r, t) measures the plausibility of a triple from
// the embedding rows of its head, relation and tail. Throughout this
// library *larger score = more plausible*; translational scorers therefore
// return the negative distance, so that the margin loss of Eq. (1),
// [γ − f(pos) + f(neg)]_+, and NSCaching's "cache the large-score
// negatives" rule read identically for both model families.
#ifndef NSCACHING_EMBEDDING_SCORING_FUNCTION_H_
#define NSCACHING_EMBEDDING_SCORING_FUNCTION_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "kg/types.h"
#include "util/topk.h"

namespace nsc {

/// The two families of §II of the paper; the family selects the default
/// loss (margin ranking vs logistic) and entity-norm constraints.
enum class ModelFamily { kTranslationalDistance, kSemanticMatching };

/// Stateless scorer over raw embedding rows. Implementations provide the
/// analytic gradient of the score; correctness is enforced by
/// finite-difference tests (scoring_function_test.cc).
class ScoringFunction {
 public:
  virtual ~ScoringFunction() = default;

  /// Lower-case identifier used by the registry ("transe", "complex", ...).
  virtual std::string name() const = 0;

  virtual ModelFamily family() const = 0;

  /// Floats per entity row for embedding dimension `dim` (e.g. 2*dim for
  /// TransD, which stores the entity vector and its projection vector).
  virtual int entity_width(int dim) const { return dim; }

  /// Floats per relation row.
  virtual int relation_width(int dim) const { return dim; }

  /// Plausibility score of (h, r, t); row pointers sized per the widths.
  virtual double Score(const float* h, const float* r, const float* t,
                       int dim) const = 0;

  /// Accumulates coeff * ∂Score/∂{h,r,t} into gh/gr/gt (same widths as the
  /// rows; buffers are += accumulated, callers zero them).
  virtual void Backward(const float* h, const float* r, const float* t,
                        int dim, float coeff, float* gh, float* gr,
                        float* gt) const = 0;

  /// Batched scoring over n triples given per-triple row pointers:
  /// out[i] = Score(h[i], r[i], t[i], dim). Pointer entries may repeat
  /// (e.g. the cache refresh broadcasts one (r, t) against many candidate
  /// heads). The default is a correct generic loop; hot scorers override
  /// it to dispatch into the SIMD kernel layer (util/simd.h) — one
  /// runtime-selected AVX2/NEON/scalar kernel call per batch.
  virtual void ScoreBatch(const float* const* h, const float* const* r,
                          const float* const* t, int dim, size_t n,
                          double* out) const {
    for (size_t i = 0; i < n; ++i) out[i] = Score(h[i], r[i], t[i], dim);
  }

  /// Batched gradient accumulation: for each triple i, accumulates
  /// coeff[i] * ∂Score/∂{h,r,t} into gh[i]/gr[i]/gt[i]. Gradient pointers
  /// may alias across triples (callers fold a shared entity's gradient
  /// into one slot — see the aliasing contract test in
  /// scorer_batch_test.cc), so implementations must process triples in
  /// order. This is the trainer's fused hot path
  /// (TrainConfig::fused_scoring, the default): each worker sub-batch
  /// drives one BackwardBatch call with per-pair loss gradients as the
  /// coefficients; the pair loop (fused_scoring = false) calls the
  /// single-triple Backward once per side of each pair.
  virtual void BackwardBatch(const float* const* h, const float* const* r,
                             const float* const* t, int dim, size_t n,
                             const float* coeff, float* const* gh,
                             float* const* gr, float* const* gt) const {
    for (size_t i = 0; i < n; ++i) {
      Backward(h[i], r[i], t[i], dim, coeff[i], gh[i], gr[i], gt[i]);
    }
  }

  /// 1-vs-all sweep: scores one fixed pair against `count` candidate
  /// entity rows laid out contiguously at `base + i * stride` floats (an
  /// EmbeddingTable slab — stride may exceed the entity width under the
  /// padded layout, and only the logical row prefix is read):
  ///   side == kHead: out[i] = Score(base + i*stride, fixed_relation,
  ///                                 fixed_entity)   // fixed (r, t)
  ///   side == kTail: out[i] = Score(fixed_entity, fixed_relation,
  ///                                 base + i*stride) // fixed (h, r)
  /// This is the primitive behind link-prediction ranking (score a test
  /// triple against every entity) and NSCaching's cache-refresh broadcast.
  /// The default tiles through ScoreBatch — correct for every scorer, one
  /// virtual dispatch per tile instead of per candidate; the SIMD
  /// scorers override it with kernels that stream the candidate rows
  /// directly, with no per-candidate pointer arrays at all.
  virtual void ScoreAllCandidates(CorruptionSide side,
                                  const float* fixed_entity,
                                  const float* fixed_relation,
                                  const float* base, std::size_t stride,
                                  std::size_t count, int dim,
                                  double* out) const;

  /// Fused sweep→top-K retrieval: fills `collector` (pre-Reset by the
  /// caller to the wanted K) with the best K of the same `count`
  /// candidate scores a ScoreAllCandidates sweep would produce, without
  /// ever materializing the |count|-double score buffer. Result indices
  /// are slab row positions in [0, count). The retrieved set — order
  /// included — is bit-identical to sorting that sweep's full buffer by
  /// (score desc, index asc): tiles reuse the sweep's exact per-candidate
  /// arithmetic and the collector's strict-threshold heap resolves ties
  /// index-ordered (util/topk.h). The default tiles through
  /// ScoreAllCandidates on kTileSize-candidate tiles and merges each into
  /// the bounded heap; the SIMD scorers override it with fused kernels
  /// that keep the running K-th-best score in a register and skip heap
  /// work on tiles whose SIMD max fails the threshold test.
  virtual void TopKCandidates(CorruptionSide side, const float* fixed_entity,
                              const float* fixed_relation, const float* base,
                              std::size_t stride, std::size_t count, int dim,
                              TopKCollector* collector) const;

  /// Batched fused retrieval: `nq` independent TopKCandidates queries
  /// against the same candidate slab, answered in as few passes over the
  /// slab as the kernel can manage. fixed_entity/fixed_relation/
  /// collectors are parallel arrays, one slot per query; each collector
  /// is pre-Reset by the caller. Contract: query q's result is
  /// bit-identical to a TopKCandidates call with the same fixed rows —
  /// the batching only reorders WHICH (tile, query) pair is scored when,
  /// never any per-query arithmetic. The default loops single-query
  /// calls; the SIMD scorers override it with tile-outer/query-inner
  /// kernels that score each tile for every query while it is
  /// L1-resident, streaming the slab from memory once instead of nq
  /// times.
  virtual void TopKCandidatesBatch(CorruptionSide side,
                                   const float* const* fixed_entity,
                                   const float* const* fixed_relation,
                                   std::size_t nq, const float* base,
                                   std::size_t stride, std::size_t count,
                                   int dim,
                                   TopKCollector* const* collectors) const;

  /// True when this scorer's batched kernels route through the SIMD
  /// dispatch layer (util/simd.h). Scorers reporting false always run
  /// the generic scalar loops, whatever simd::ActivePath() says — used
  /// by the benches to attribute numbers to a kernel variant.
  virtual bool simd_accelerated() const { return false; }

  /// Hard constraint applied to an entity row after each update (e.g.
  /// TransE keeps entity norms ≤ 1). Default: none.
  virtual void ProjectEntityRow(float* row, int dim) const {
    (void)row;
    (void)dim;
  }

  /// Hard constraint applied to a relation row after each update.
  virtual void ProjectRelationRow(float* row, int dim) const {
    (void)row;
    (void)dim;
  }
};

/// Creates a scorer by name; nullptr for unknown names. Known names:
/// "transe", "transh", "transd", "distmult", "complex", "rescal".
std::unique_ptr<ScoringFunction> MakeScoringFunction(const std::string& name);

/// All registered scorer names, in Table III order then extensions.
std::vector<std::string> ListScoringFunctions();

}  // namespace nsc

#endif  // NSCACHING_EMBEDDING_SCORING_FUNCTION_H_
