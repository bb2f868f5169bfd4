// Training-engine throughput: triples/second of the fused engine at 1,
// 2, 4, ... worker threads (up to NSC_THREADS), per scorer and sampler,
// on the synthetic KG. The t=1 row is the deterministic fused serial
// engine; the t>1 rows are fused Hogwild, where NSCaching's select,
// corrupt and cache refresh run inside the workers against the
// lock-striped cache shards. Speedups are vs the t=1 row and bounded by
// the machine (the report prints the detected core count so single-core
// numbers are not misread as an engine defect).
//
// A kernel microbench section precedes the training runs: raw ScoreBatch
// and BackwardBatch throughput (triples/sec and effective GB/s) for the
// SIMD-accelerated scorers, forced-scalar vs the active dispatch path, on
// the padded table layout — the attribution row for any reported kernel
// speedup. The banner names the dispatch path so recorded numbers are
// attributable to a kernel variant (NSC_FORCE_SCALAR=1 re-runs everything
// on the scalar path).
//
// A top-K retrieval bench (--topk, ISSUE 6) A/Bs the fused sweep→top-K
// kernels against the pre-fusion "sweep+scan" pattern (ScoreAllHeads
// into an |E|-double buffer, then util TopK's iota + partial_sort) per
// scorer, at |E| = NSC_TOPK_ENTITIES (default 131072) and
// K = NSC_TOPK_K (default 10). Both retrievals must return the
// bit-identical result set — the bench fails loudly if they diverge.
// --json=<path> (requires --topk) additionally writes the runs as
// schema-stable JSON (schema_version 1; validated by
// tools/check_bench_json.py) — BENCH_topk.json is a committed baseline.
//
// Knobs: NSC_SCALE / NSC_EPOCHS / NSC_DIM / NSC_SEED (see bench_common.h)
// plus NSC_THREADS (max thread count to sweep, default 4).
// Args: --sampler=bernoulli|nscaching|all (default all) and
// --scorer=transe|distmult|complex|all (default all) filter the workload
// and kernel lists; --topk runs the top-K retrieval A/B instead.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "embedding/initializer.h"
#include "kg/kg_index.h"
#include "sampler/bernoulli_sampler.h"
#include "train/trainer.h"
#include "util/math.h"
#include "util/simd.h"
#include "util/stopwatch.h"
#include "util/text_table.h"
#include "util/thread_pool.h"
#include "util/topk.h"

namespace nsc {
namespace {

struct RunResult {
  double triples_per_sec = 0.0;
  double mean_loss = 0.0;
};

// Trains `epochs` timed epochs on the fused engine at `threads` workers
// (after one untimed warmup epoch, so cache warm-up and first-touch page
// faults stay out of the numbers) and reports end-to-end training
// throughput, sampling included.
RunResult MeasureRun(const Dataset& data, const KgIndex& index,
                     const std::string& scorer, SamplerKind sampler_kind,
                     const bench::Settings& s, int threads, int epochs) {
  PipelineConfig config = bench::BasePipeline(scorer, sampler_kind, s);
  config.train.num_threads = threads;
  config.train.fused_scoring = true;

  KgeModel model(data.num_entities(), data.num_relations(), s.dim,
                 MakeScoringFunction(scorer));
  Rng rng(s.seed);
  model.InitXavier(&rng);
  std::unique_ptr<NegativeSampler> sampler =
      MakeSampler(sampler_kind, &model, &index, config);
  Trainer trainer(&model, &data.train, sampler.get(), config.train);

  trainer.RunEpoch();  // Warmup.
  double seconds = 0.0;
  double loss = 0.0;
  for (int e = 0; e < epochs; ++e) {
    const EpochStats stats = trainer.RunEpoch();
    seconds += stats.seconds;
    loss = stats.mean_loss;
  }
  RunResult result;
  result.triples_per_sec =
      seconds > 0.0
          ? static_cast<double>(data.train.size()) * epochs / seconds
          : 0.0;
  result.mean_loss = loss;
  return result;
}

// ---- Kernel microbench -----------------------------------------------------

struct KernelResult {
  double score_tps = 0.0;     // ScoreBatch triples/sec.
  double score_gbps = 0.0;    // Effective bandwidth of ScoreBatch.
  double backward_tps = 0.0;  // BackwardBatch triples/sec.
};

// Raw batched-kernel throughput on a padded table: repeated ScoreBatch /
// BackwardBatch calls over a fixed random pointer batch (the cache-refresh
// shape: large n, reused rows), timed for ~0.2s each after warmup.
KernelResult MeasureKernel(const std::string& scorer_name, int dim,
                           simd::Path path, uint64_t seed) {
  const std::unique_ptr<ScoringFunction> scorer =
      MakeScoringFunction(scorer_name);
  const int32_t kEntities = 4096;
  const int32_t kRelations = 64;
  const size_t n = 4096;
  EmbeddingTable entities(kEntities, scorer->entity_width(dim),
                          simd::kPadLanes);
  EmbeddingTable relations(kRelations, scorer->relation_width(dim),
                           simd::kPadLanes);
  Rng rng(seed);
  UniformInit(&entities, -0.5, 0.5, &rng);
  UniformInit(&relations, -0.5, 0.5, &rng);

  std::vector<const float*> h(n), r(n), t(n);
  for (size_t i = 0; i < n; ++i) {
    h[i] = entities.Row(static_cast<int32_t>(rng.UniformInt(kEntities)));
    r[i] = relations.Row(static_cast<int32_t>(rng.UniformInt(kRelations)));
    t[i] = entities.Row(static_cast<int32_t>(rng.UniformInt(kEntities)));
  }
  std::vector<double> out(n);
  std::vector<float> coeff(n, 0.5f);
  std::vector<std::vector<float>> gh(n), gr(n), gt(n);
  std::vector<float*> pgh(n), pgr(n), pgt(n);
  for (size_t i = 0; i < n; ++i) {
    gh[i].assign(entities.width(), 0.0f);
    gr[i].assign(relations.width(), 0.0f);
    gt[i].assign(entities.width(), 0.0f);
    pgh[i] = gh[i].data();
    pgr[i] = gr[i].data();
    pgt[i] = gt[i].data();
  }

  simd::ScopedForcePath force(path);
  auto time_reps = [&](auto&& body) {
    body();  // Warmup.
    int reps = 0;
    Stopwatch watch;
    do {
      body();
      ++reps;
    } while (watch.Seconds() < 0.2);
    return static_cast<double>(reps) * n / watch.Seconds();
  };

  KernelResult result;
  result.score_tps = time_reps([&] {
    scorer->ScoreBatch(h.data(), r.data(), t.data(), dim, n, out.data());
  });
  // Bytes each scored triple touches: two entity rows + one relation row
  // read (logical widths) + one double written.
  const double bytes_per_triple =
      (2.0 * entities.width() + relations.width()) * sizeof(float) +
      sizeof(double);
  result.score_gbps = result.score_tps * bytes_per_triple / 1e9;
  result.backward_tps = time_reps([&] {
    scorer->BackwardBatch(h.data(), r.data(), t.data(), dim, n, coeff.data(),
                          pgh.data(), pgr.data(), pgt.data());
  });
  return result;
}

bool RunKernelMicrobench(const std::string& scorer_filter, int dim,
                         uint64_t seed) {
  std::printf("--- batched kernels, scalar vs %s (dim=%d, padded rows) ---\n",
              simd::ActivePathName(), dim);
  bool any = false;
  TextTable table;
  table.SetHeader({"kernel", "path", "score Mtriples/s", "score GB/s",
                   "backward Mtriples/s", "score speedup"});
  for (const char* name : {"transe", "distmult", "complex"}) {
    if (scorer_filter != "all" && scorer_filter != name) continue;
    any = true;
    const KernelResult scalar =
        MeasureKernel(name, dim, simd::Path::kScalar, seed);
    auto add_row = [&](const char* path, const KernelResult& k) {
      char s_tps[32], s_gbps[32], b_tps[32], sp[32];
      std::snprintf(s_tps, sizeof(s_tps), "%.1f", k.score_tps / 1e6);
      std::snprintf(s_gbps, sizeof(s_gbps), "%.2f", k.score_gbps);
      std::snprintf(b_tps, sizeof(b_tps), "%.1f", k.backward_tps / 1e6);
      std::snprintf(sp, sizeof(sp), "%.2fx",
                    scalar.score_tps > 0.0 ? k.score_tps / scalar.score_tps
                                           : 0.0);
      table.AddRow({name, path, s_tps, s_gbps, b_tps, sp});
    };
    add_row("scalar", scalar);
    if (simd::ActivePath() != simd::Path::kScalar) {
      add_row(simd::ActivePathName(),
              MeasureKernel(name, dim, simd::ActivePath(), seed));
    }
  }
  std::printf("%s\n", table.Render().c_str());
  return any;
}

// ---- Top-K retrieval bench -------------------------------------------------

struct TopKRunResult {
  std::string scorer;
  double sweep_scan_qps = 0.0;  // Baseline: full sweep + util TopK scan.
  double topk_qps = 0.0;        // Fused sweep→top-K retrieval.
  double topk_batch_qps = 0.0;  // Batched fused retrieval (one slab pass
                                // answers all queries of a rep).
  double pruned_fraction = 0.0; // Tiles skipped by the threshold test.
  bool mismatch = false;        // Result sets diverged (bench fails).
};

// One scorer's A/B at fixed (|E|, K): Q random head queries, each
// retrieval timed for ~0.3s after a warmup pass that also cross-checks
// the two retrievals for bit-identical result sets.
TopKRunResult MeasureTopKRun(const std::string& scorer_name, int32_t entities,
                             size_t k, int dim, uint64_t seed) {
  constexpr int32_t kTopKRelations = 16;
  constexpr size_t kQueries = 8;
  KgeModel model(entities, kTopKRelations, dim,
                 MakeScoringFunction(scorer_name));
  Rng rng(seed);
  model.InitXavier(&rng);
  std::vector<std::pair<RelationId, EntityId>> queries(kQueries);
  for (auto& q : queries) {
    q.first = static_cast<RelationId>(rng.UniformInt(kTopKRelations));
    q.second = static_cast<EntityId>(rng.UniformInt(entities));
  }

  TopKRunResult result;
  result.scorer = scorer_name;

  // Warmup + exactness cross-check: the fused retrieval must equal the
  // first K of the scanned buffer, scores and indices alike.
  std::vector<double> scores(static_cast<size_t>(entities));
  std::vector<TopKEntry> got;
  for (const auto& q : queries) {
    model.ScoreAllHeads(q.first, q.second, scores.data());
    const std::vector<int> picked = TopK(scores, static_cast<int>(k));
    model.TopKHeads(q.first, q.second, k, &got);
    if (got.size() != picked.size()) result.mismatch = true;
    for (size_t i = 0; i < got.size() && !result.mismatch; ++i) {
      if (got[i].index != static_cast<size_t>(picked[i]) ||
          got[i].score != scores[got[i].index]) {
        result.mismatch = true;
      }
    }
    if (result.mismatch) {
      std::fprintf(stderr,
                   "FAIL: %s fused top-%zu disagrees with sweep+scan for "
                   "query (r=%d, t=%d)\n",
                   scorer_name.c_str(), k, q.first, q.second);
      return result;
    }
  }

  // Batched cross-check: per-query results must be bit-identical to the
  // single-query fused retrieval above.
  std::vector<std::vector<TopKEntry>> batched;
  model.TopKHeadsBatch(queries, k, &batched);
  for (size_t q = 0; q < queries.size(); ++q) {
    model.TopKHeads(queries[q].first, queries[q].second, k, &got);
    if (batched[q].size() != got.size()) result.mismatch = true;
    for (size_t i = 0; i < got.size() && !result.mismatch; ++i) {
      if (batched[q][i].index != got[i].index ||
          batched[q][i].score != got[i].score) {
        result.mismatch = true;
      }
    }
    if (result.mismatch) {
      std::fprintf(stderr,
                   "FAIL: %s batched top-%zu disagrees with single-query "
                   "retrieval for query (r=%d, t=%d)\n",
                   scorer_name.c_str(), k, queries[q].first,
                   queries[q].second);
      return result;
    }
  }

  auto time_queries = [&](auto&& body) {
    int reps = 0;
    Stopwatch watch;
    do {
      body();
      ++reps;
    } while (watch.Seconds() < 0.3);
    return static_cast<double>(reps) * kQueries / watch.Seconds();
  };

  result.sweep_scan_qps = time_queries([&] {
    for (const auto& q : queries) {
      model.ScoreAllHeads(q.first, q.second, scores.data());
      const std::vector<int> picked = TopK(scores, static_cast<int>(k));
      (void)picked;
    }
  });
  size_t tiles = 0;
  size_t pruned = 0;
  result.topk_qps = time_queries([&] {
    for (const auto& q : queries) {
      TopKSweepStats stats;
      model.TopKHeads(q.first, q.second, k, &got, &stats);
      tiles += stats.tiles;
      pruned += stats.pruned_tiles;
    }
  });
  result.pruned_fraction =
      tiles > 0 ? static_cast<double>(pruned) / static_cast<double>(tiles)
                : 0.0;
  result.topk_batch_qps = time_queries([&] {
    model.TopKHeadsBatch(queries, k, &batched);
  });
  return result;
}

// Emits the --topk runs as schema-stable JSON (schema_version 1 — the
// contract tools/check_bench_json.py validates in CI). Mscores/s counts
// candidate scores logically examined per second (queries/s × |E|).
bool WriteTopKJson(const std::string& path,
                   const std::vector<TopKRunResult>& runs, int32_t entities,
                   size_t k, int dim) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write --json=%s\n", path.c_str());
    return false;
  }
  const double mscale = static_cast<double>(entities) / 1e6;
  std::fprintf(f,
               "{\n"
               "  \"schema_version\": 1,\n"
               "  \"suite\": \"topk\",\n"
               "  \"simd_path\": \"%s\",\n"
               "  \"threads\": 1,\n"
               "  \"dim\": %d,\n"
               "  \"runs\": [\n",
               simd::ActivePathName(), dim);
  for (size_t i = 0; i < runs.size(); ++i) {
    const TopKRunResult& r = runs[i];
    const double speedup =
        r.sweep_scan_qps > 0.0 ? r.topk_qps / r.sweep_scan_qps : 0.0;
    const double batch_speedup =
        r.sweep_scan_qps > 0.0 ? r.topk_batch_qps / r.sweep_scan_qps : 0.0;
    std::fprintf(f,
                 "    {\n"
                 "      \"scorer\": \"%s\",\n"
                 "      \"num_entities\": %d,\n"
                 "      \"k\": %zu,\n"
                 "      \"sweep_scan_mscores_per_sec\": %.3f,\n"
                 "      \"topk_mscores_per_sec\": %.3f,\n"
                 "      \"topk_batch_mscores_per_sec\": %.3f,\n"
                 "      \"speedup\": %.3f,\n"
                 "      \"batch_speedup\": %.3f,\n"
                 "      \"topk_queries_per_sec\": %.1f,\n"
                 "      \"topk_batch_queries_per_sec\": %.1f\n"
                 "    }%s\n",
                 r.scorer.c_str(), entities, k, r.sweep_scan_qps * mscale,
                 r.topk_qps * mscale, r.topk_batch_qps * mscale, speedup,
                 batch_speedup, r.topk_qps, r.topk_batch_qps,
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

int RunTopKBench(const std::string& scorer_filter, const bench::Settings& s,
                 const std::string& json_path) {
  // Default |E| keeps the entity slab (|E| × stride × 4 B ≈ 128 MB at
  // dim 24) larger than any cache level, the regime real KGs occupy —
  // cache-resident tables (|E| ≈ 100k) understate the batched row's
  // gain because the baseline never pays DRAM.
  const int32_t entities =
      static_cast<int32_t>(GetEnvInt("NSC_TOPK_ENTITIES", 1048576));
  const size_t k = static_cast<size_t>(GetEnvInt("NSC_TOPK_K", 10));
  std::printf("--- top-%zu retrieval: sweep+scan vs fused sweep->top-K ---\n",
              k);
  std::printf("|E|=%d  dim=%d  8 head queries/rep  t=1\n\n", entities, s.dim);
  TextTable table;
  table.SetHeader({"scorer", "retrieval", "queries/s", "Mscores/s",
                   "pruned tiles", "speedup"});
  std::vector<TopKRunResult> runs;
  for (const char* name : {"transe", "distmult", "complex"}) {
    if (scorer_filter != "all" && scorer_filter != name) continue;
    const TopKRunResult r = MeasureTopKRun(name, entities, k, s.dim, s.seed);
    if (r.mismatch) return 1;
    runs.push_back(r);
    const double mscale = static_cast<double>(entities) / 1e6;
    auto add_row = [&](const char* label, double qps, const char* pruned,
                       double speedup) {
      char qps_s[32], msc[32], sp[32];
      std::snprintf(qps_s, sizeof(qps_s), "%.0f", qps);
      std::snprintf(msc, sizeof(msc), "%.1f", qps * mscale);
      std::snprintf(sp, sizeof(sp), "%.2fx", speedup);
      table.AddRow({name, label, qps_s, msc, pruned, sp});
    };
    char pruned_s[32];
    std::snprintf(pruned_s, sizeof(pruned_s), "%.1f%%",
                  100.0 * r.pruned_fraction);
    add_row("sweep+scan", r.sweep_scan_qps, "-", 1.0);
    add_row("fused top-K", r.topk_qps, pruned_s,
            r.sweep_scan_qps > 0.0 ? r.topk_qps / r.sweep_scan_qps : 0.0);
    add_row("fused batched", r.topk_batch_qps, pruned_s,
            r.sweep_scan_qps > 0.0 ? r.topk_batch_qps / r.sweep_scan_qps
                                   : 0.0);
  }
  if (runs.empty()) {
    std::fprintf(stderr, "no topk scorer matches --scorer\n");
    return 1;
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "sweep+scan is the pre-fusion kTop pattern: one ScoreAllHeads sweep\n"
      "into an |E|-double buffer, then util TopK (iota + partial_sort).\n"
      "fused top-K never materializes that buffer: 256-candidate tiles are\n"
      "scored L1-resident and max-tested against the running K-th-best\n"
      "score; pruned tiles skip all heap work. fused batched answers all 8\n"
      "queries of a rep in ONE pass over the entity table (tile-outer /\n"
      "query-inner), streaming the table from memory once instead of 8\n"
      "times. All rows were cross-checked to return bit-identical result\n"
      "sets per query.\n");
  if (!json_path.empty() &&
      !WriteTopKJson(json_path, runs, entities, k, s.dim)) {
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace nsc

int main(int argc, char** argv) {
  using namespace nsc;

  std::string sampler_filter = "all";
  std::string scorer_filter = "all";
  std::string json_path;
  bool topk_only = false;
  for (int i = 1; i < argc; ++i) {
    const char* kSamplerFlag = "--sampler=";
    const char* kScorerFlag = "--scorer=";
    const char* kJsonFlag = "--json=";
    if (std::strncmp(argv[i], kSamplerFlag, std::strlen(kSamplerFlag)) == 0) {
      sampler_filter = argv[i] + std::strlen(kSamplerFlag);
    } else if (std::strncmp(argv[i], kScorerFlag, std::strlen(kScorerFlag)) ==
               0) {
      scorer_filter = argv[i] + std::strlen(kScorerFlag);
    } else if (std::strncmp(argv[i], kJsonFlag, std::strlen(kJsonFlag)) == 0) {
      json_path = argv[i] + std::strlen(kJsonFlag);
    } else if (std::strcmp(argv[i], "--topk") == 0) {
      topk_only = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--sampler=bernoulli|nscaching|all]"
                   " [--scorer=transe|distmult|complex|all]"
                   " [--topk [--json=<path>]]\n",
                   argv[0]);
      return 1;
    }
  }
  if (!json_path.empty() && !topk_only) {
    std::fprintf(stderr, "--json requires --topk (the only suite with a "
                         "JSON schema)\n");
    return 1;
  }
  // Reject unknown filter values up front — the kernel microbench always
  // has work to do, so a typo would otherwise "succeed" while silently
  // skipping every training workload.
  if (sampler_filter != "all" && sampler_filter != "bernoulli" &&
      sampler_filter != "nscaching") {
    std::fprintf(stderr, "unknown --sampler=%s\n", sampler_filter.c_str());
    return 1;
  }
  if (scorer_filter != "all" && scorer_filter != "transe" &&
      scorer_filter != "distmult" && scorer_filter != "complex") {
    std::fprintf(stderr, "unknown --scorer=%s\n", scorer_filter.c_str());
    return 1;
  }

  bench::Settings s = bench::GetSettings();
  const int max_threads =
      static_cast<int>(GetEnvInt("NSC_THREADS", 4));
  const int epochs = std::max(1, std::min(s.epochs, 5));

  if (topk_only) {
    std::printf("=== Top-K retrieval throughput ===\n\n");
    std::printf("simd dispatch: %s  (NSC_FORCE_SCALAR=1 forces scalar)\n\n",
                simd::ActivePathName());
    return RunTopKBench(scorer_filter, s, json_path);
  }

  const Dataset data = bench::GetDataset("wn18rr", s);
  const KgIndex index(data.train);

  std::printf("=== Training-engine throughput (triples/sec) ===\n\n");
  std::printf("dataset synth-wn18rr: |E|=%d |R|=%d |train|=%zu  dim=%d  "
              "epochs timed=%d\n",
              data.num_entities(), data.num_relations(), data.train.size(),
              s.dim, epochs);
  std::printf("hardware threads available: %d  (Hogwild speedup is bounded "
              "by physical cores)\n",
              DefaultThreadCount());
  std::printf("simd dispatch: %s  (pad lanes %d floats, row alignment %zuB;"
              " NSC_FORCE_SCALAR=1 forces scalar)\n\n",
              simd::ActivePathName(), simd::kPadLanes, simd::kRowAlignment);

  const bool any_kernel = RunKernelMicrobench(scorer_filter, s.dim, s.seed);

  struct Workload {
    std::string scorer;
    SamplerKind sampler;
    std::string label;
    std::string filter_name;
  };
  const std::vector<Workload> workloads = {
      {"transe", SamplerKind::kBernoulli, "transe + bernoulli", "bernoulli"},
      {"distmult", SamplerKind::kBernoulli, "distmult + bernoulli",
       "bernoulli"},
      {"complex", SamplerKind::kBernoulli, "complex + bernoulli", "bernoulli"},
      {"transe", SamplerKind::kNSCaching, "transe + nscaching", "nscaching"},
  };

  bool any_run = false;
  for (const Workload& w : workloads) {
    if (sampler_filter != "all" && sampler_filter != w.filter_name) continue;
    if (scorer_filter != "all" && scorer_filter != w.scorer) continue;
    any_run = true;

    std::printf("--- %s ---\n", w.label.c_str());
    TextTable table;
    table.SetHeader({"engine", "triples/sec", "speedup", "final loss"});
    double baseline = 0.0;
    for (int t = 1; t <= max_threads; t *= 2) {
      const RunResult r =
          MeasureRun(data, index, w.scorer, w.sampler, s, t, epochs);
      if (t == 1) baseline = r.triples_per_sec;
      char tput[32], speedup[32], loss[32];
      std::snprintf(tput, sizeof(tput), "%.0f", r.triples_per_sec);
      std::snprintf(speedup, sizeof(speedup), "%.2fx",
                    baseline > 0.0 ? r.triples_per_sec / baseline : 0.0);
      std::snprintf(loss, sizeof(loss), "%.4f", r.mean_loss);
      table.AddRow({"fused t=" + std::to_string(t), tput, speedup, loss});
    }
    std::printf("%s\n", table.Render().c_str());
  }

  if (!any_run && !any_kernel) {
    std::fprintf(stderr, "no workload matches --sampler=%s --scorer=%s\n",
                 sampler_filter.c_str(), scorer_filter.c_str());
    return 1;
  }

  std::printf(
      "Note: fused rows score each fusion block through ScoreBatch +\n"
      "Loss::ComputeBatch (scores stale by at most fused_block pairs); loss\n"
      "differences in t>1 rows are the expected Hogwild asynchrony.\n");
  return 0;
}
