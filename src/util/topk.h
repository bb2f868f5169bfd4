// Bounded-heap top-K accumulation for the fused sweep→top-K retrieval
// kernels (ScoringFunction::TopKCandidates).
//
// "Top-K of |E| candidate scores" is what both the link-prediction
// protocol and NSCaching's kTop cache refresh reduce to, yet a full sweep
// materializes |E| doubles and scans them — O(|E|) memory traffic twice.
// The collector here is the other half of the fused primitive: sweep
// kernels score one L1-resident tile at a time, test the tile's max
// against the running K-th-best score, and only touch the heap for tiles
// that can change the result. A top-10 query over millions of entities
// then writes O(K) results instead of |E| floats.
//
// Tie contract: the retrieved set (and its order) is EXACTLY the first K
// elements of the full score buffer sorted by (score desc, index asc) —
// deterministic, layout- and dispatch-path-independent given bit-identical
// scores. The contract falls out of two rules: candidates are offered in
// increasing index order, and a candidate only displaces the current
// worst kept entry under a strict score comparison (an equal-scored later
// candidate never evicts an earlier one). topk_parity_test fuzzes this
// against the sorted full-buffer sweep across every scorer.
#ifndef NSCACHING_UTIL_TOPK_H_
#define NSCACHING_UTIL_TOPK_H_

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

namespace nsc {

/// One retrieval result: the candidate's row index within the swept slab
/// and its score.
struct TopKEntry {
  double score = 0.0;
  std::size_t index = 0;
};

/// Retrieval order: higher score first, equal scores by lower index —
/// i.e. the order of sorting the full score buffer descending with
/// index-ordered tie resolution.
inline bool TopKBetter(const TopKEntry& a, const TopKEntry& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.index < b.index;
}

/// Tile-pruning counters of one retrieval (exposed through
/// CacheRefreshResult into AtomicCacheStats so the pruning rate of the
/// kTop cache refresh is observable).
struct TopKSweepStats {
  std::size_t tiles = 0;         ///< Candidate tiles scored.
  std::size_t pruned_tiles = 0;  ///< Tiles whose max failed the threshold
                                 ///< test — zero heap work.
};

/// Bounded "best K (score desc, index asc)" accumulator. Reusable: Reset()
/// keeps the heap storage, so a thread_local collector makes repeated
/// retrievals allocation-free after warm-up.
class TopKCollector {
 public:
  /// Candidates per tile: the granularity of the threshold test in every
  /// fused kernel and the generic fallback. 256 doubles = one 2 KB
  /// L1-resident score buffer.
  static constexpr std::size_t kTileSize = 256;

  explicit TopKCollector(std::size_t k = 0) { Reset(k); }

  /// Empties the collector for a new retrieval of `k` results. Heap
  /// storage is retained.
  void Reset(std::size_t k) {
    k_ = k;
    heap_.clear();
    heap_.reserve(k);
    // k == 0 keeps the threshold at +inf so nothing ever qualifies.
    threshold_ = k == 0 ? std::numeric_limits<double>::infinity()
                        : -std::numeric_limits<double>::infinity();
    stats_ = TopKSweepStats();
  }

  std::size_t capacity() const { return k_; }
  std::size_t size() const { return heap_.size(); }
  bool full() const { return heap_.size() == k_; }

  /// Strict qualification threshold: with the heap full, a candidate can
  /// only enter with score > threshold() (equal-scored later candidates
  /// lose the index tie), so a tile whose max is <= threshold() cannot
  /// change the result. -inf until the heap is full, then the running
  /// K-th-best score — the register the fused kernels test tiles against.
  double threshold() const { return threshold_; }

  /// Offers one candidate. Candidates MUST arrive in increasing index
  /// order; the strict > test then yields index-ordered tie resolution
  /// with no index comparisons on the hot path.
  void Offer(double score, std::size_t index) {
    if (full() && !(score > threshold_)) return;
    OfferQualified(score, index);
  }

  /// Offers one tile of `n` scores for slab rows [base_index,
  /// base_index + n): the generic (scalar) tile path — max-prune first,
  /// per-element threshold test only when the tile qualifies. The SIMD
  /// kernels implement the same contract with vector max / movemask and
  /// account their tiles through CountTile()/CountPrunedTile().
  void OfferTile(const double* scores, std::size_t base_index, std::size_t n) {
    ++stats_.tiles;
    if (full()) {
      double mx = -std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < n; ++i) mx = std::max(mx, scores[i]);
      if (!(mx > threshold_)) {
        ++stats_.pruned_tiles;
        return;
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (scores[i] > threshold_) OfferQualified(scores[i], base_index + i);
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) Offer(scores[i], base_index + i);
    }
  }

  /// Tile accounting hooks for kernels that run their own tile loop.
  void CountTile() { ++stats_.tiles; }
  void CountPrunedTile() { ++stats_.pruned_tiles; }

  const TopKSweepStats& stats() const { return stats_; }

  /// Moves the collected entries into `out`, best-first (TopKBetter
  /// order). The collector is left empty (call Reset before reuse);
  /// storage is retained.
  void ExtractSorted(std::vector<TopKEntry>* out) {
    out->assign(heap_.begin(), heap_.end());
    std::sort(out->begin(), out->end(), TopKBetter);
    heap_.clear();
  }

 private:
  /// Worst-at-front heap order: under std::push_heap's max-heap semantics
  /// with TopKBetter as the "less than", the front is the entry no other
  /// entry is worse than — the current K-th best.
  static bool HeapOrder(const TopKEntry& a, const TopKEntry& b) {
    return TopKBetter(a, b);
  }

  /// Slow path: the candidate is known to qualify (heap not full, or
  /// score strictly above the threshold).
  void OfferQualified(double score, std::size_t index) {
    if (heap_.size() < k_) {
      heap_.push_back({score, index});
      std::push_heap(heap_.begin(), heap_.end(), HeapOrder);
      if (heap_.size() == k_) threshold_ = heap_.front().score;
      return;
    }
    std::pop_heap(heap_.begin(), heap_.end(), HeapOrder);
    heap_.back() = {score, index};
    std::push_heap(heap_.begin(), heap_.end(), HeapOrder);
    threshold_ = heap_.front().score;
  }

  std::size_t k_ = 0;
  double threshold_ = std::numeric_limits<double>::infinity();
  std::vector<TopKEntry> heap_;
  TopKSweepStats stats_;
};

}  // namespace nsc

#endif  // NSCACHING_UTIL_TOPK_H_
