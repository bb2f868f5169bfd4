#include "train/link_prediction.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace nsc {

namespace {

/// Strictly-greater / exactly-equal candidate counts for one side of one
/// query. The rank is derived from these per the tie policy.
struct SideCounts {
  int64_t greater = 0;
  int64_t ties = 0;
};

double RankFromCounts(const SideCounts& c, TieBreak tie_break) {
  const double optimistic = static_cast<double>(c.greater + 1);
  return tie_break == TieBreak::kOptimistic
             ? optimistic
             : optimistic + 0.5 * static_cast<double>(c.ties);
}

/// Counts over a full 1-vs-all sweep: `scores[e]` holds the
/// candidate score of every entity e (including the true one, whose own
/// sweep score is the comparison reference so candidate-vs-true
/// comparisons never mix two kernels' arithmetic). The dense count over
/// all entities is a branch-free, vectorizable loop; the true entity and
/// (when filtered) the per-query known-true list are then subtracted —
/// O(|filter list|) corrections instead of O(|E|) hash probes. The lists
/// are deduplicated at KgIndex build time, so each candidate is
/// subtracted at most once.
SideCounts CountOneSideBatched(const double* scores, int32_t num_entities,
                               EntityId true_entity, bool filtered,
                               const std::vector<EntityId>& known) {
  const double true_score = scores[true_entity];
  SideCounts counts;
  for (int32_t e = 0; e < num_entities; ++e) {
    counts.greater += scores[e] > true_score;
    counts.ties += scores[e] == true_score;
  }
  --counts.ties;  // The true entity always ties with itself.
  if (filtered) {
    for (EntityId f : known) {
      if (f == true_entity) continue;
      counts.greater -= scores[f] > true_score;
      counts.ties -= scores[f] == true_score;
    }
  }
  return counts;
}

/// Candidates per sub-range sweep of the hits-only mode. One tile of
/// doubles is the only score storage a worker ever holds.
constexpr int32_t kEvalTile = 256;

/// Hits@K-only tiled counting with early exit. Sweeps 256-entity tiles
/// through the sub-range kernels (ScoreHeadRange/ScoreTailRange — the
/// same arithmetic as the full sweep, so candidate-vs-true comparisons
/// are unchanged), applies the filtered corrections of each tile before
/// moving on, and stops once the strictly-greater count reaches hits_k.
/// Each tile's correction-adjusted contribution is non-negative (a known
/// candidate's subtraction cancels its own dense count from the same
/// tile), so the running count is an exact lower bound of the final one
/// and the exit is never premature. `known` is KgIndex's strictly
/// increasing list, so the corrections merge against the ascending tile
/// sweep directly. Returns true when the full entity range was counted
/// (`out` then holds exact counts, equal to CountOneSideBatched's); false
/// on early exit (the rank is provably > hits_k, `out` is partial junk).
bool CountOneSideHitsOnly(const KgeModel& model, const Triple& x,
                          CorruptionSide side, bool filtered,
                          const std::vector<EntityId>& known, int hits_k,
                          double* tile, SideCounts* out) {
  const int32_t num_entities = model.num_entities();
  const EntityId true_entity = side == CorruptionSide::kHead ? x.h : x.t;
  // True score from a count-1 slice of the sweep: per-candidate scores
  // are range-independent, so this is bit-identical to the full sweep's
  // entry for the true entity.
  double true_score;
  if (side == CorruptionSide::kHead) {
    model.ScoreHeadRange(x.r, x.t, static_cast<size_t>(true_entity), 1,
                         &true_score);
  } else {
    model.ScoreTailRange(x.h, x.r, static_cast<size_t>(true_entity), 1,
                         &true_score);
  }
  const size_t num_known = filtered ? known.size() : 0;
  SideCounts counts;
  size_t next_known = 0;
  for (int32_t lo = 0; lo < num_entities; lo += kEvalTile) {
    const int32_t n = std::min(kEvalTile, num_entities - lo);
    if (side == CorruptionSide::kHead) {
      model.ScoreHeadRange(x.r, x.t, static_cast<size_t>(lo),
                           static_cast<size_t>(n), tile);
    } else {
      model.ScoreTailRange(x.h, x.r, static_cast<size_t>(lo),
                           static_cast<size_t>(n), tile);
    }
    for (int32_t i = 0; i < n; ++i) {
      counts.greater += tile[i] > true_score;
      counts.ties += tile[i] == true_score;
    }
    if (true_entity >= lo && true_entity < lo + n) {
      --counts.ties;  // The true entity always ties with itself.
    }
    while (next_known < num_known && known[next_known] < lo + n) {
      const EntityId f = known[next_known++];
      if (f == true_entity) continue;
      counts.greater -= tile[f - lo] > true_score;
      counts.ties -= tile[f - lo] == true_score;
    }
    if (counts.greater >= hits_k) {
      *out = counts;
      return false;
    }
  }
  *out = counts;
  return true;
}

}  // namespace

RankingMetrics EvaluateLinkPrediction(const KgeModel& model,
                                      const TripleStore& eval_set,
                                      const KgIndex& filter_index,
                                      const LinkPredictionOptions& options) {
  const size_t limit = options.max_triples == 0
                           ? eval_set.size()
                           : std::min(options.max_triples, eval_set.size());
  if (limit == 0) return {};
  if (options.hits_only) {
    CHECK_GE(options.hits_k, 1);
    CHECK_LE(options.hits_k, 10) << "RankingMetrics tracks hits up to k=10";
  }
  const int threads =
      options.num_threads > 0 ? options.num_threads : DefaultThreadCount();

  // One contiguous chunk of queries per slot. Each task accumulates into
  // a worker-local RankingMetrics and stores it once, so no two workers
  // ever write the same accumulator concurrently; the slots are
  // cacheline-padded anyway so even those single stores cannot false
  // share. Merging in chunk order keeps the result deterministic in the
  // thread count regardless of which worker ran which chunk.
  struct alignas(64) ChunkSlot {
    RankingMetrics metrics;
  };
  const size_t num_chunks = std::min(static_cast<size_t>(threads), limit);
  const size_t chunk = (limit + num_chunks - 1) / num_chunks;
  std::vector<ChunkSlot> slots(num_chunks);

  ThreadPool pool(threads);
  for (size_t c = 0; c < num_chunks; ++c) {
    const size_t lo = c * chunk;
    const size_t hi = std::min(limit, lo + chunk);
    if (lo >= hi) break;
    pool.Schedule([&, lo, hi, c](int /*worker*/) {
      RankingMetrics local;
      if (options.hits_only) {
        // Hits@K-only: one 256-double tile is the worker's entire score
        // storage; no |E| buffer exists on this path.
        double tile[kEvalTile];
        const double junk_rank = static_cast<double>(options.hits_k) + 1.0;
        for (size_t i = lo; i < hi; ++i) {
          const Triple& x = eval_set[i];
          SideCounts counts;
          for (CorruptionSide side :
               {CorruptionSide::kHead, CorruptionSide::kTail}) {
            const std::vector<EntityId>& known =
                side == CorruptionSide::kHead ? filter_index.HeadsOf(x.r, x.t)
                                              : filter_index.TailsOf(x.h, x.r);
            const bool exact = CountOneSideHitsOnly(
                model, x, side, options.filtered, known, options.hits_k, tile,
                &counts);
            local.AddRank(exact ? RankFromCounts(counts, options.tie_break)
                                : junk_rank);
          }
        }
        slots[c].metrics = local;
        return;
      }
      std::vector<double> scores(static_cast<size_t>(model.num_entities()));
      for (size_t i = lo; i < hi; ++i) {
        const Triple& x = eval_set[i];
        model.ScoreAllHeads(x.r, x.t, scores.data());
        const SideCounts head = CountOneSideBatched(
            scores.data(), model.num_entities(), x.h, options.filtered,
            filter_index.HeadsOf(x.r, x.t));
        model.ScoreAllTails(x.h, x.r, scores.data());
        const SideCounts tail = CountOneSideBatched(
            scores.data(), model.num_entities(), x.t, options.filtered,
            filter_index.TailsOf(x.h, x.r));
        local.AddRank(RankFromCounts(head, options.tie_break));
        local.AddRank(RankFromCounts(tail, options.tie_break));
      }
      slots[c].metrics = local;
    });
  }
  pool.Wait();

  RankingMetrics total;
  for (const ChunkSlot& slot : slots) total.Merge(slot.metrics);
  return total;
}

}  // namespace nsc
