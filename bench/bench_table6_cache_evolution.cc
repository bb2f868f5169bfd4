// Table VI reproduction: qualitative evolution of the tail cache of one
// positive fact (<person>, profession, <their profession>) during
// NSCaching training — the self-paced-learning effect of §III-C. The paper
// uses FB13 and watches (manorama, profession, actor); FB13 is not
// available offline, so a named synthetic persons/professions KG stands in
// (see DESIGN.md §3). Early rows hold arbitrary entities; later rows fill
// with profession entities (harder, type-consistent negatives).
//
// The NSCaching refreshes during training and the final link-prediction
// footer both run on the batched 1-vs-all scoring primitive.
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "core/nscaching_sampler.h"
#include "kg/kg_index.h"
#include "train/link_prediction.h"
#include "train/trainer.h"
#include "util/text_table.h"

int main(int argc, char** argv) {
  using namespace nsc;
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s (no flags; see the NSC_* environment "
                 "knobs)\n", argv[0]);
    return 1;
  }
  const bench::Settings s = bench::GetSettings();

  const Dataset dataset = GenerateProfessionsKg(400, 40, /*seed=*/s.seed + 6);
  const KgIndex train_index(dataset.train);

  KgeModel model(dataset.num_entities(), dataset.num_relations(), s.dim,
                 MakeScoringFunction("transe"));
  Rng rng(s.seed ^ 0x6A6);
  model.InitXavier(&rng);

  NSCachingConfig ns;
  ns.n1 = 10;
  ns.n2 = 10;
  NSCachingSampler sampler(&model, &train_index, ns);

  TrainConfig config;
  config.dim = s.dim;
  config.learning_rate = 0.02;
  config.margin = 4.0;
  config.seed = s.seed;
  Trainer trainer(&model, &dataset.train, &sampler, config);

  const RelationId r_prof = dataset.relations.Find("profession");
  Triple probe{-1, r_prof, -1};
  for (const Triple& x : dataset.train) {
    if (x.r == r_prof) {
      probe = x;
      break;
    }
  }

  std::printf("=== Table VI: tail-cache contents of (%s, profession, %s) ===\n\n",
              dataset.entities.Name(probe.h).c_str(),
              dataset.entities.Name(probe.t).c_str());

  TextTable table;
  table.SetHeader({"epoch", "5 sampled cache entries", "professions in cache"});
  const int num_professions = 24;  // Profession entities have the lowest ids.

  auto snapshot = [&](int epoch) {
    const auto* entry = sampler.tail_cache().Find(PackHr(probe.h, probe.r));
    if (entry == nullptr) {
      table.AddRow({TextTable::Int(epoch), "(not initialised)", "0/0"});
      return;
    }
    std::string entities;
    int professions = 0;
    for (size_t i = 0; i < entry->size(); ++i) {
      if (i < 5) {
        if (i) entities += ", ";
        entities += dataset.entities.Name((*entry)[i]);
      }
      professions += ((*entry)[i] < num_professions);
    }
    table.AddRow({TextTable::Int(epoch), entities,
                  TextTable::Int(professions) + "/" +
                      TextTable::Int(static_cast<long long>(entry->size()))});
  };

  const int total_epochs = std::max(s.epochs * 2, 20);
  for (int epoch = 0; epoch <= total_epochs; ++epoch) {
    if (epoch == 0 || epoch == 2 || epoch == 5 || epoch == total_epochs / 2 ||
        epoch == total_epochs) {
      snapshot(epoch);
    }
    if (epoch < total_epochs) trainer.RunEpoch();
  }
  std::printf("%s\n", table.Render().c_str());

  // Quantitative footer: filtered link prediction of the trained model,
  // through the same evaluator as Table IV.
  const KgIndex filter_index(std::vector<const TripleStore*>{
      &dataset.train, &dataset.valid, &dataset.test});
  const RankingMetrics m =
      EvaluateLinkPrediction(model, dataset.test, filter_index);
  std::printf("final filtered test metrics (%zu triples): %s\n\n",
              dataset.test.size(), m.ToString().c_str());

  std::printf(
      "expected shape (paper, Table VI): cache drifts from arbitrary\n"
      "entities (persons, cities) to profession entities — easy negatives\n"
      "first, semantically hard ones later (self-paced learning).\n");
  return 0;
}
