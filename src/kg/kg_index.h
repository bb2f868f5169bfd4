// Hash indexes over a set of triples:
//   - membership test Contains(h, r, t) — false-negative filtering and the
//     per-candidate evaluator oracle of the tests need it;
//   - adjacency lists (h, r) -> tails and (r, t) -> heads — deduplicated
//     and sorted ascending at build time; the batched 1-vs-all evaluator
//     masks exactly these per-query lists to realise the "filtered"
//     setting in O(|list|) corrections instead of O(|E|) hash probes, and
//     the NSCaching refresh stamps the key's one list into a per-thread
//     array once per refresh instead of probing the hash set per
//     candidate;
//   - per-relation cardinality statistics tph ("tails per head") and hpt
//     ("heads per tail") — the Bernoulli sampling scheme of TransH [42]
//     corrupts the head with probability tph / (tph + hpt).
#ifndef NSCACHING_KG_KG_INDEX_H_
#define NSCACHING_KG_KG_INDEX_H_

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "kg/triple_store.h"
#include "kg/types.h"

namespace nsc {

/// Immutable index built from one or more triple stores.
class KgIndex {
 public:
  /// Builds an index over the given stores (e.g. train only, or
  /// train+valid+test for the filtered evaluation protocol). All stores
  /// must share the same universe; the first defines it.
  explicit KgIndex(const std::vector<const TripleStore*>& stores);

  /// Convenience: index over a single store.
  explicit KgIndex(const TripleStore& store)
      : KgIndex(std::vector<const TripleStore*>{&store}) {}

  /// True if (h, r, t) is present.
  bool Contains(const Triple& x) const {
    return membership_.count(PackTriple(x)) > 0;
  }

  /// Tails t with (h, r, t) present, strictly increasing; empty vector
  /// when none.
  const std::vector<EntityId>& TailsOf(EntityId h, RelationId r) const;

  /// Heads h with (h, r, t) present, strictly increasing; empty vector
  /// when none.
  const std::vector<EntityId>& HeadsOf(RelationId r, EntityId t) const;

  /// Average number of distinct tails per (head, relation) pair of `r`.
  double TailsPerHead(RelationId r) const;

  /// Average number of distinct heads per (relation, tail) pair of `r`.
  double HeadsPerTail(RelationId r) const;

  /// Bernoulli head-replacement probability tph/(tph+hpt) for relation r
  /// (falls back to 0.5 for relations unseen at build time).
  double HeadReplaceProbability(RelationId r) const;

  /// Number of occurrences of each entity (as head or tail).
  const std::vector<int64_t>& entity_degrees() const { return entity_degrees_; }

  int32_t num_entities() const { return num_entities_; }
  int32_t num_relations() const { return num_relations_; }
  size_t num_triples() const { return membership_.size(); }

 private:
  int32_t num_entities_ = 0;
  int32_t num_relations_ = 0;
  std::unordered_set<uint64_t> membership_;
  std::unordered_map<uint64_t, std::vector<EntityId>> tails_by_hr_;
  std::unordered_map<uint64_t, std::vector<EntityId>> heads_by_rt_;
  std::vector<double> tph_;  // Indexed by relation.
  std::vector<double> hpt_;
  std::vector<int64_t> entity_degrees_;
  std::vector<EntityId> empty_;
};

}  // namespace nsc

#endif  // NSCACHING_KG_KG_INDEX_H_
