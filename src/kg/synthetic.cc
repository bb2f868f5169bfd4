#include "kg/synthetic.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "kg/types.h"
#include "util/logging.h"
#include "util/math.h"
#include "util/rng.h"

namespace nsc {

namespace {

/// Relation cardinality archetypes.
enum class Cardinality { kOneToOne, kOneToMany, kManyToOne, kManyToMany };

struct LatentRelation {
  std::vector<float> z;          // Latent translation vector.
  Cardinality cardinality = Cardinality::kOneToOne;
  int source_cluster = 0;        // Head type.
  int target_cluster = 0;        // Tail type.
  int twin_of = -1;              // >= 0: this id mirrors another relation.
};

double SquaredDistance(const std::vector<float>& a, const std::vector<float>& b) {
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    s += d * d;
  }
  return s;
}

/// Samples `k` distinct tails for head `h` under relation `rel`: draws a
/// candidate pool from the target cluster and Gumbel-top-k samples with
/// logits -beta * ||z_h + z_r - z_t||^2.
std::vector<int> SampleNeighbors(const std::vector<std::vector<float>>& z_entity,
                                 const std::vector<float>& z_anchor,
                                 const std::vector<int>& pool, int pool_size,
                                 double beta, int k, Rng* rng) {
  const int take = std::min<int>(pool_size, static_cast<int>(pool.size()));
  if (take == 0) return {};
  std::vector<int> candidates(take);
  for (int i = 0; i < take; ++i) {
    candidates[i] = pool[rng->UniformInt(static_cast<uint64_t>(pool.size()))];
  }
  std::vector<double> logits(take);
  for (int i = 0; i < take; ++i) {
    logits[i] = -beta * SquaredDistance(z_entity[candidates[i]], z_anchor);
  }
  const int kk = std::min(k, take);
  std::vector<int> picked;
  GumbelTopK(logits, kk, rng, &picked);
  std::vector<int> out;
  out.reserve(kk);
  for (int idx : picked) out.push_back(candidates[idx]);
  return out;
}

/// Deterministic k nearest entities (by latent distance to `z_anchor`)
/// within `pool`. Used when complete_neighborhoods is set: every touched
/// (h, r) pair emits exactly its world-model-true tails.
std::vector<int> TopNeighbors(const std::vector<std::vector<float>>& z_entity,
                              const std::vector<float>& z_anchor,
                              const std::vector<int>& pool, int k) {
  std::vector<std::pair<double, int>> keyed;
  keyed.reserve(pool.size());
  for (int e : pool) {
    keyed.emplace_back(SquaredDistance(z_entity[e], z_anchor), e);
  }
  const int kk = std::min<int>(k, static_cast<int>(keyed.size()));
  std::partial_sort(keyed.begin(), keyed.begin() + kk, keyed.end());
  std::vector<int> out(kk);
  for (int i = 0; i < kk; ++i) out[i] = keyed[i].second;
  return out;
}

std::vector<float> AddVec(const std::vector<float>& a,
                          const std::vector<float>& b, float sign_b) {
  std::vector<float> out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] + sign_b * b[i];
  return out;
}

}  // namespace

Dataset GenerateSyntheticKg(const SyntheticKgConfig& config) {
  CHECK_GT(config.num_entities, 0);
  CHECK_GT(config.num_relations, 0);
  CHECK_GT(config.num_triples, 0);
  Rng rng(config.seed);

  // --- Latent world model -------------------------------------------------
  const int d = config.latent_dim;
  std::vector<std::vector<float>> centers(config.num_clusters,
                                          std::vector<float>(d));
  for (auto& c : centers) {
    for (float& v : c) v = static_cast<float>(rng.Gaussian(0.0, 1.2));
  }

  std::vector<std::vector<float>> z_entity(config.num_entities,
                                           std::vector<float>(d));
  std::vector<int> entity_cluster(config.num_entities);
  std::vector<std::vector<int>> cluster_members(config.num_clusters);
  for (int e = 0; e < config.num_entities; ++e) {
    const int c = static_cast<int>(
        rng.UniformInt(static_cast<uint64_t>(config.num_clusters)));
    entity_cluster[e] = c;
    cluster_members[c].push_back(e);
    for (int i = 0; i < d; ++i) {
      z_entity[e][i] = centers[c][i] +
                       static_cast<float>(rng.Gaussian(0.0, config.cluster_spread));
    }
  }
  // Guard against empty clusters (possible for tiny configs).
  for (int c = 0; c < config.num_clusters; ++c) {
    if (cluster_members[c].empty()) {
      const int e = static_cast<int>(
          rng.UniformInt(static_cast<uint64_t>(config.num_entities)));
      cluster_members[c].push_back(e);
    }
  }

  // --- Relations: cardinality archetypes and inverse twins ----------------
  std::vector<LatentRelation> relations(config.num_relations);
  std::vector<int> base_relations;
  int next = 0;
  while (next < config.num_relations) {
    LatentRelation& rel = relations[next];
    rel.z.resize(d);
    for (float& v : rel.z) {
      v = static_cast<float>(
          rng.Gaussian(0.0, config.relation_scale / std::sqrt(double(d))));
    }
    const double u = rng.Uniform();
    if (u < config.frac_one_to_many) {
      rel.cardinality = Cardinality::kOneToMany;
    } else if (u < config.frac_one_to_many + config.frac_many_to_one) {
      rel.cardinality = Cardinality::kManyToOne;
    } else if (u < config.frac_one_to_many + config.frac_many_to_one +
                       config.frac_many_to_many) {
      rel.cardinality = Cardinality::kManyToMany;
    } else {
      rel.cardinality = Cardinality::kOneToOne;
    }
    rel.source_cluster = static_cast<int>(
        rng.UniformInt(static_cast<uint64_t>(config.num_clusters)));
    rel.target_cluster = static_cast<int>(
        rng.UniformInt(static_cast<uint64_t>(config.num_clusters)));
    base_relations.push_back(next);
    const int base_id = next;
    ++next;
    if (next < config.num_relations &&
        rng.Bernoulli(config.inverse_twin_fraction)) {
      relations[next].twin_of = base_id;
      ++next;
    }
  }

  // --- Emit facts ----------------------------------------------------------
  // Zipf-ish quota per base relation.
  std::vector<double> weights(base_relations.size());
  for (size_t j = 0; j < weights.size(); ++j) {
    weights[j] = 1.0 / std::pow(static_cast<double>(j + 1), 0.6);
  }
  double wsum = 0.0;
  for (double w : weights) wsum += w;

  std::unordered_set<uint64_t> seen;
  std::vector<Triple> facts;
  facts.reserve(config.num_triples + config.num_triples / 2);

  auto emit = [&](EntityId h, RelationId r, EntityId t) {
    if (h == t) return false;
    Triple x{h, r, t};
    if (!seen.insert(PackTriple(x)).second) return false;
    facts.push_back(x);
    return true;
  };

  for (size_t j = 0; j < base_relations.size(); ++j) {
    const int rid = base_relations[j];
    const LatentRelation& rel = relations[rid];
    const int quota = std::max(
        4, static_cast<int>(config.num_triples * weights[j] / wsum));
    const std::vector<int>& sources = cluster_members[rel.source_cluster];
    const std::vector<int>& targets = cluster_members[rel.target_cluster];

    int emitted = 0;
    int guard = quota * 8;
    while (emitted < quota && guard-- > 0) {
      int fanout = 1;
      switch (rel.cardinality) {
        case Cardinality::kOneToOne:
          fanout = 1;
          break;
        case Cardinality::kOneToMany:
        case Cardinality::kManyToOne:
          fanout = 1 + static_cast<int>(rng.UniformInt(
                           static_cast<uint64_t>(config.high_cardinality_mean * 2)));
          break;
        case Cardinality::kManyToMany:
          fanout = 1 + static_cast<int>(rng.UniformInt(3));
          break;
      }
      auto neighbors = [&](const std::vector<float>& anchor,
                           const std::vector<int>& pool, int k) {
        if (config.complete_neighborhoods) {
          return TopNeighbors(z_entity, anchor, pool, k);
        }
        return SampleNeighbors(z_entity, anchor, pool,
                               config.tail_candidate_pool,
                               config.softmax_beta, k, &rng);
      };
      if (rel.cardinality == Cardinality::kManyToOne) {
        // Fix a tail, attach several heads near z_t - z_r.
        const int t = targets[rng.UniformInt(static_cast<uint64_t>(targets.size()))];
        const auto anchor = AddVec(z_entity[t], rel.z, -1.0f);
        for (int h : neighbors(anchor, sources, fanout)) {
          emitted += emit(h, rid, t) ? 1 : 0;
        }
      } else {
        // Fix a head, attach tails near z_h + z_r.
        const int h = sources[rng.UniformInt(static_cast<uint64_t>(sources.size()))];
        const auto anchor = AddVec(z_entity[h], rel.z, +1.0f);
        for (int t : neighbors(anchor, targets, fanout)) {
          emitted += emit(h, rid, t) ? 1 : 0;
        }
      }
    }
  }

  // Inverse twins mirror ~90% of their base relation's facts.
  const size_t num_base_facts = facts.size();
  for (int rid = 0; rid < config.num_relations; ++rid) {
    const int base = relations[rid].twin_of;
    if (base < 0) continue;
    for (size_t i = 0; i < num_base_facts; ++i) {
      const Triple& x = facts[i];
      if (x.r != base) continue;
      if (rng.Bernoulli(0.9)) emit(x.t, rid, x.h);
    }
  }

  // --- Split ----------------------------------------------------------------
  rng.Shuffle(&facts);
  const size_t total = facts.size();
  size_t want_test = static_cast<size_t>(config.test_fraction * total);
  size_t want_valid = static_cast<size_t>(config.valid_fraction * total);

  // Move a triple to an eval split only if each id still occurs elsewhere,
  // so train covers every entity/relation of valid/test.
  std::vector<int> entity_count(config.num_entities, 0);
  std::vector<int> relation_count(config.num_relations, 0);
  for (const Triple& x : facts) {
    ++entity_count[x.h];
    ++entity_count[x.t];
    ++relation_count[x.r];
  }

  Dataset dataset;
  dataset.name = config.name;
  for (int e = 0; e < config.num_entities; ++e) {
    dataset.entities.GetOrAdd("e" + std::to_string(e));
  }
  for (int r = 0; r < config.num_relations; ++r) {
    std::string name = "r" + std::to_string(r);
    if (relations[r].twin_of >= 0) {
      name += "_inv" + std::to_string(relations[r].twin_of);
    }
    dataset.relations.GetOrAdd(name);
  }
  dataset.FinalizeUniverse();

  std::vector<Triple> train_list, valid_list, test_list;
  for (const Triple& x : facts) {
    const bool removable = entity_count[x.h] > 1 && entity_count[x.t] > 1 &&
                           relation_count[x.r] > 1;
    if (removable && test_list.size() < want_test) {
      test_list.push_back(x);
      --entity_count[x.h];
      --entity_count[x.t];
      --relation_count[x.r];
    } else if (removable && valid_list.size() < want_valid) {
      valid_list.push_back(x);
      --entity_count[x.h];
      --entity_count[x.t];
      --relation_count[x.r];
    } else {
      train_list.push_back(x);
    }
  }
  for (const Triple& x : train_list) dataset.train.Add(x);
  for (const Triple& x : valid_list) dataset.valid.Add(x);
  for (const Triple& x : test_list) dataset.test.Add(x);
  return dataset;
}

SyntheticKgConfig SynthWn18Config(double scale) {
  // WN18: 40,943 entities, 18 relations, 141k train; sparse, hierarchical,
  // inverse-duplicate relations make it easy. Scaled ~1/12.
  SyntheticKgConfig c;
  c.name = "synth-WN18";
  c.num_entities = static_cast<int>(3400 * scale);
  c.num_relations = 18;
  c.num_triples = static_cast<int>(13000 * scale);
  c.num_clusters = 12;
  c.inverse_twin_fraction = 0.8;
  c.frac_one_to_many = 0.35;
  c.frac_many_to_one = 0.35;
  c.frac_many_to_many = 0.1;
  c.seed = 181;
  return c;
}

SyntheticKgConfig SynthWn18RrConfig(double scale) {
  // WN18RR: near-duplicate/inverse relations removed; 11 relations; harder.
  SyntheticKgConfig c;
  c.name = "synth-WN18RR";
  c.num_entities = static_cast<int>(3400 * scale);
  c.num_relations = 11;
  c.num_triples = static_cast<int>(9000 * scale);
  c.num_clusters = 12;
  c.inverse_twin_fraction = 0.0;
  c.cluster_spread = 0.6;  // Blurrier types: harder dataset.
  c.frac_one_to_many = 0.35;
  c.frac_many_to_one = 0.35;
  c.frac_many_to_many = 0.1;
  c.seed = 1811;
  return c;
}

SyntheticKgConfig SynthFb15kConfig(double scale) {
  // FB15K: 14,951 entities, 1,345 relations, dense general facts with
  // inverse duplicates. Scaled ~1/10 entities, relations trimmed to keep
  // per-relation support reasonable at this scale.
  SyntheticKgConfig c;
  c.name = "synth-FB15K";
  c.num_entities = static_cast<int>(1500 * scale);
  c.num_relations = 130;
  c.num_triples = static_cast<int>(40000 * scale);
  c.num_clusters = 20;
  c.inverse_twin_fraction = 0.7;
  c.frac_one_to_many = 0.3;
  c.frac_many_to_one = 0.3;
  c.frac_many_to_many = 0.3;
  c.high_cardinality_mean = 5.0;
  c.valid_fraction = 0.08;
  c.test_fraction = 0.10;
  c.seed = 15000;
  return c;
}

SyntheticKgConfig SynthFb15k237Config(double scale) {
  // FB15K237: inverse/near-duplicate relations removed; 237 relations.
  SyntheticKgConfig c;
  c.name = "synth-FB15K237";
  c.num_entities = static_cast<int>(1450 * scale);
  c.num_relations = 80;
  c.num_triples = static_cast<int>(24000 * scale);
  c.num_clusters = 20;
  c.inverse_twin_fraction = 0.0;
  c.cluster_spread = 0.6;
  c.frac_one_to_many = 0.3;
  c.frac_many_to_one = 0.3;
  c.frac_many_to_many = 0.3;
  c.high_cardinality_mean = 5.0;
  c.valid_fraction = 0.06;
  c.test_fraction = 0.07;
  c.seed = 237;
  return c;
}

Dataset GenerateProfessionsKg(int num_persons, int num_cities, uint64_t seed) {
  Rng rng(seed);

  static const char* kProfessions[] = {
      "actor",          "physician",  "artist",     "accountant",
      "attorney_at_law", "coach",      "aviator",    "sex_worker",
      "teacher",        "singer",     "politician", "writer",
      "chemist",        "engineer",   "nurse",      "farmer",
      "judge",          "journalist", "soldier",    "painter",
      "architect",      "historian",  "economist",  "athlete"};
  static const char* kFirst[] = {"allen",  "jose",   "hans",   "frank",
                                 "laura",  "john",   "raich",  "mark",
                                 "maria",  "elena",  "victor", "nina",
                                 "oscar",  "petra",  "samuel", "ruth",
                                 "tomas",  "iris",   "felix",  "anna"};
  static const char* kLast[] = {"clarke", "gola",    "zinsser", "pais",
                                "marx",   "cough",   "carter",  "shivas",
                                "lilly",  "ortega",  "weber",   "novak",
                                "keller", "dvorak",  "moore",   "sarti",
                                "blanc",  "herrera", "lindt",   "okafor"};
  static const char* kCityFlavor[] = {"ostrava", "como", "cavan", "brno",
                                      "leeds",   "turku", "gdansk", "liege"};

  const int num_professions = sizeof(kProfessions) / sizeof(kProfessions[0]);

  Dataset dataset;
  dataset.name = "synth-professions";
  std::vector<EntityId> profession_ids, city_ids, person_ids;
  for (int i = 0; i < num_professions; ++i) {
    profession_ids.push_back(dataset.entities.GetOrAdd(kProfessions[i]));
  }
  for (int i = 0; i < num_cities; ++i) {
    std::string name =
        i < 8 ? std::string(kCityFlavor[i]) : "city_" + std::to_string(i);
    city_ids.push_back(dataset.entities.GetOrAdd(name));
  }
  for (int i = 0; i < num_persons; ++i) {
    std::string name = std::string(kFirst[rng.UniformInt(uint64_t(20))]) + "_" +
                       kLast[rng.UniformInt(uint64_t(20))] + "_" +
                       std::to_string(i);
    person_ids.push_back(dataset.entities.GetOrAdd(name));
  }

  const RelationId r_profession = dataset.relations.GetOrAdd("profession");
  const RelationId r_born_in = dataset.relations.GetOrAdd("born_in");
  const RelationId r_located_in = dataset.relations.GetOrAdd("located_in");
  const RelationId r_colleague = dataset.relations.GetOrAdd("colleague_of");
  dataset.FinalizeUniverse();

  std::unordered_set<uint64_t> seen;
  std::vector<Triple> facts;
  auto emit = [&](EntityId h, RelationId r, EntityId t) {
    if (h == t) return;
    Triple x{h, r, t};
    if (seen.insert(PackTriple(x)).second) facts.push_back(x);
  };

  // Persons cluster by profession; colleagues mostly share a profession.
  std::vector<int> person_profession(num_persons);
  std::vector<std::vector<EntityId>> by_profession(num_professions);
  for (int i = 0; i < num_persons; ++i) {
    const int p = static_cast<int>(
        rng.UniformInt(static_cast<uint64_t>(num_professions)));
    person_profession[i] = p;
    by_profession[p].push_back(person_ids[i]);
    emit(person_ids[i], r_profession, profession_ids[p]);
    if (rng.Bernoulli(0.15)) {  // Some persons have a second profession.
      const int p2 = static_cast<int>(
          rng.UniformInt(static_cast<uint64_t>(num_professions)));
      emit(person_ids[i], r_profession, profession_ids[p2]);
    }
    emit(person_ids[i], r_born_in,
         city_ids[rng.UniformInt(static_cast<uint64_t>(num_cities))]);
  }
  for (int i = 0; i < num_cities; ++i) {
    emit(city_ids[i], r_located_in,
         city_ids[rng.UniformInt(static_cast<uint64_t>(num_cities))]);
  }
  for (int i = 0; i < num_persons; ++i) {
    const auto& peers = by_profession[person_profession[i]];
    for (int k = 0; k < 3 && peers.size() > 1; ++k) {
      emit(person_ids[i], r_colleague,
           peers[rng.UniformInt(static_cast<uint64_t>(peers.size()))]);
    }
  }

  rng.Shuffle(&facts);
  const size_t n_eval = facts.size() / 25;
  std::vector<int> entity_count(dataset.num_entities(), 0);
  for (const Triple& x : facts) {
    ++entity_count[x.h];
    ++entity_count[x.t];
  }
  size_t assigned_valid = 0, assigned_test = 0;
  for (const Triple& x : facts) {
    const bool removable = entity_count[x.h] > 1 && entity_count[x.t] > 1;
    if (removable && assigned_test < n_eval) {
      dataset.test.Add(x);
      ++assigned_test;
      --entity_count[x.h];
      --entity_count[x.t];
    } else if (removable && assigned_valid < n_eval) {
      dataset.valid.Add(x);
      ++assigned_valid;
      --entity_count[x.h];
      --entity_count[x.t];
    } else {
      dataset.train.Add(x);
    }
  }
  return dataset;
}

}  // namespace nsc
