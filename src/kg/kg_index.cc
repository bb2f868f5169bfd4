#include "kg/kg_index.h"

#include <algorithm>

#include "util/logging.h"

namespace nsc {

KgIndex::KgIndex(const std::vector<const TripleStore*>& stores) {
  CHECK(!stores.empty());
  num_entities_ = stores[0]->num_entities();
  num_relations_ = stores[0]->num_relations();

  // Distinct (h, r) and (r, t) pair counts per relation, for tph/hpt.
  std::vector<int64_t> hr_pairs(num_relations_, 0);
  std::vector<int64_t> rt_pairs(num_relations_, 0);
  std::vector<int64_t> triples_per_relation(num_relations_, 0);
  entity_degrees_.assign(num_entities_, 0);

  for (const TripleStore* store : stores) {
    CHECK_EQ(store->num_entities(), num_entities_);
    CHECK_EQ(store->num_relations(), num_relations_);
    for (const Triple& x : *store) {
      if (!membership_.insert(PackTriple(x)).second) continue;  // Dedup.
      auto& tails = tails_by_hr_[PackHr(x.h, x.r)];
      if (tails.empty()) ++hr_pairs[x.r];
      tails.push_back(x.t);
      auto& heads = heads_by_rt_[PackRt(x.r, x.t)];
      if (heads.empty()) ++rt_pairs[x.r];
      heads.push_back(x.h);
      ++triples_per_relation[x.r];
      ++entity_degrees_[x.h];
      ++entity_degrees_[x.t];
    }
  }

  // Sorted once here: the filtered evaluator (train/link_prediction.cc)
  // merges a key's list against its ascending entity sweep, and every
  // list is strictly increasing by contract (kg_index_test pins it).
  for (auto& kv : tails_by_hr_) std::sort(kv.second.begin(), kv.second.end());
  for (auto& kv : heads_by_rt_) std::sort(kv.second.begin(), kv.second.end());

  tph_.assign(num_relations_, 0.0);
  hpt_.assign(num_relations_, 0.0);
  for (RelationId r = 0; r < num_relations_; ++r) {
    if (hr_pairs[r] > 0) {
      tph_[r] = static_cast<double>(triples_per_relation[r]) /
                static_cast<double>(hr_pairs[r]);
    }
    if (rt_pairs[r] > 0) {
      hpt_[r] = static_cast<double>(triples_per_relation[r]) /
                static_cast<double>(rt_pairs[r]);
    }
  }
}

const std::vector<EntityId>& KgIndex::TailsOf(EntityId h, RelationId r) const {
  auto it = tails_by_hr_.find(PackHr(h, r));
  return it == tails_by_hr_.end() ? empty_ : it->second;
}

const std::vector<EntityId>& KgIndex::HeadsOf(RelationId r, EntityId t) const {
  auto it = heads_by_rt_.find(PackRt(r, t));
  return it == heads_by_rt_.end() ? empty_ : it->second;
}

double KgIndex::TailsPerHead(RelationId r) const {
  CHECK_GE(r, 0);
  CHECK_LT(r, num_relations_);
  return tph_[r];
}

double KgIndex::HeadsPerTail(RelationId r) const {
  CHECK_GE(r, 0);
  CHECK_LT(r, num_relations_);
  return hpt_[r];
}

double KgIndex::HeadReplaceProbability(RelationId r) const {
  const double tph = TailsPerHead(r);
  const double hpt = HeadsPerTail(r);
  const double denom = tph + hpt;
  if (denom <= 0.0) return 0.5;
  return tph / denom;
}

}  // namespace nsc
