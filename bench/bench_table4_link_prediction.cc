// Table IV reproduction: filtered link prediction (MRR / MR / Hit@10) for
// five scoring functions x six training regimes x four datasets.
// Regimes, as in the paper:
//   pretrained          — the Bernoulli warm-start checkpoint itself;
//   Bernoulli           — the fixed-scheme baseline, trained full budget;
//   KBGAN   {pretrain, scratch}
//   NSCaching {pretrain, scratch}
// IGAN rows are not runnable (code never released; the paper also copies
// its numbers) and are omitted here — see EXPERIMENTS.md for the
// comparison against the paper's reported IGAN values.
//
// Runtime is controlled by NSC_SCALE / NSC_EPOCHS / NSC_FULL; by default a
// reduced sweep runs in a few minutes. NSC_SCORERS / NSC_DATASETS can
// restrict the grid (comma lists, e.g. NSC_SCORERS=transe,complex). All
// rankings run through the batched 1-vs-all evaluator.
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "sampler/bernoulli_sampler.h"
#include "util/text_table.h"

namespace {

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nsc;
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s (no flags; see the NSC_* environment "
                 "knobs)\n", argv[0]);
    return 1;
  }
  const bench::Settings s = bench::GetSettings();

  const std::vector<std::string> scorers = SplitCsv(GetEnvString(
      "NSC_SCORERS", "transe,transh,transd,distmult,complex"));
  const std::vector<std::string> datasets =
      SplitCsv(GetEnvString("NSC_DATASETS", "wn18,wn18rr,fb15k,fb15k237"));

  std::printf(
      "=== Table IV: link prediction, %d epochs (+%d pretrain), dim=%d, "
      "scale=%.2f ===\n\n",
      s.epochs, s.pretrain, s.dim, s.scale);

  for (const std::string& dataset_name : datasets) {
    const Dataset dataset = bench::GetDataset(dataset_name, s);
    std::printf("--- dataset %s (%d entities, %zu train) ---\n",
                dataset.name.c_str(), dataset.num_entities(),
                dataset.train.size());
    TextTable table;
    table.SetHeader({"scorer", "method", "MRR", "MR", "Hit@10"});

    for (const std::string& scorer : scorers) {
      auto run = [&](SamplerKind kind, int pretrain, int epochs,
                     const std::string& label) {
        PipelineConfig config = bench::BasePipeline(scorer, kind, s);
        config.pretrain_epochs = pretrain;
        config.train.epochs = epochs;
        config.eval_valid_every = s.eval_every;
        const PipelineResult result = RunPipeline(dataset, config);
        table.AddRow({scorer, label,
                      TextTable::Fixed(result.test_metrics.mrr(), 4),
                      TextTable::Fixed(result.test_metrics.mr(), 0),
                      TextTable::Fixed(result.test_metrics.hits_at(10), 2)});
      };

      // "pretrained": the warm-start checkpoint alone (pretrain epochs of
      // Bernoulli, no further training).
      run(SamplerKind::kBernoulli, 0, s.pretrain, "pretrained");
      run(SamplerKind::kBernoulli, 0, s.epochs, "Bernoulli");
      run(SamplerKind::kKbgan, s.pretrain, s.epochs, "KBGAN +pretrain");
      run(SamplerKind::kKbgan, 0, s.epochs, "KBGAN +scratch");
      run(SamplerKind::kNSCaching, s.pretrain, s.epochs, "NSCaching +pretrain");
      run(SamplerKind::kNSCaching, 0, s.epochs, "NSCaching +scratch");
      table.AddSeparator();
    }
    std::printf("%s\n", table.Render().c_str());
  }
  std::printf(
      "expected shape (paper, Table IV): NSCaching (either regime) leads on\n"
      "MRR/Hit@10; KBGAN beats Bernoulli on translational models but is\n"
      "unstable from scratch on semantic matching models; WN18/FB15K (with\n"
      "inverse twins) score far higher than WN18RR/FB15K237.\n");
  return 0;
}
