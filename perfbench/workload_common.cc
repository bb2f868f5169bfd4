#include "workload_common.h"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "embedding/scoring_function.h"
#include "kg/synthetic.h"
#include "train/link_prediction.h"

namespace nsc {
namespace perfbench {

std::unique_ptr<Graph> BuildGraph(double scale, uint64_t seed,
                                  Tracer* tracer) {
  auto graph = std::make_unique<Graph>();
  SyntheticKgConfig config = SynthFb15k237Config(scale);
  config.seed = seed;
  int64_t start = NowNs();
  {
    ScopedSpan span(tracer, "kg.generate");
    graph->data = GenerateSyntheticKg(config);
  }
  graph->generate_s = SecondsSince(start);
  start = NowNs();
  {
    ScopedSpan span(tracer, "kg.index");
    graph->train_index = std::make_unique<KgIndex>(graph->data.train);
    graph->filter_index = std::make_unique<KgIndex>(
        std::vector<const TripleStore*>{&graph->data.train, &graph->data.valid,
                                        &graph->data.test});
  }
  graph->index_s = SecondsSince(start);
  return graph;
}

std::unique_ptr<KgeModel> BuildTransE(int32_t entities, int32_t relations,
                                      int dim, uint64_t seed, Tracer* tracer) {
  ScopedSpan span(tracer, "embedding.init");
  auto model = std::make_unique<KgeModel>(entities, relations, dim,
                                          MakeScoringFunction("transe"));
  Rng rng(seed);
  model->InitXavier(&rng);
  return model;
}

TripleStore ValidationSet(const TripleStore& valid) {
  TripleStore subset(valid.num_entities(), valid.num_relations());
  for (size_t i = 0; i < valid.size() && i < kMaxValidTriples; ++i) {
    subset.Add(valid[i]);
  }
  return subset;
}

double EvalMrr(const KgeModel& model, const TripleStore& split,
               const KgIndex& filter, Tracer* tracer, double* eval_s,
               int64_t* eval_queries) {
  LinkPredictionOptions options;
  options.num_threads = 1;
  const int64_t start = NowNs();
  ScopedSpan span(tracer, "eval.link_prediction");
  const RankingMetrics m = EvaluateLinkPrediction(model, split, filter, options);
  *eval_s += SecondsSince(start);
  *eval_queries += 2 * static_cast<int64_t>(split.size());
  return m.mrr();
}

void TargetCrossing::Observe(int epoch, double mrr) {
  if (epoch_ == 0 && epoch > 0 && mrr >= target_) {
    epoch_ = epoch;
    fraction_ = (target_ - prev_mrr_) / (mrr - prev_mrr_);
  }
  prev_mrr_ = mrr;
}

double MeasureRefreshFloor(const KgeModel& model, const TripleStore& train,
                           int candidates, uint64_t seed, Tracer* tracer) {
  constexpr int kTriples = 2000;
  Rng rng(seed);
  std::vector<Triple> triples(kTriples);
  std::vector<std::vector<EntityId>> heads(kTriples), tails(kTriples);
  for (int i = 0; i < kTriples; ++i) {
    triples[i] = train[rng.UniformInt(static_cast<uint64_t>(train.size()))];
    for (int c = 0; c < candidates; ++c) {
      heads[i].push_back(static_cast<EntityId>(
          rng.UniformInt(static_cast<uint64_t>(model.num_entities()))));
      tails[i].push_back(static_cast<EntityId>(
          rng.UniformInt(static_cast<uint64_t>(model.num_entities()))));
    }
  }
  std::vector<double> passes;
  std::vector<double> scores;
  double sink = 0.0;
  for (int pass = 0; pass < 5; ++pass) {
    ScopedSpan span(tracer, "embedding.refresh_floor");
    const int64_t start = NowNs();
    for (int i = 0; i < kTriples; ++i) {
      model.ScoreHeadCandidates(triples[i].r, triples[i].t, heads[i], &scores);
      sink += scores[0];
      model.ScoreTailCandidates(triples[i].h, triples[i].r, tails[i], &scores);
      sink += scores[0];
    }
    passes.push_back(SecondsSince(start) * 1e6 / kTriples);
  }
  if (!std::isfinite(sink)) return 0.0;
  return Median(passes);
}

void AddTrainingLayers(const TrainingLayers& l, Report* report) {
  const double sample_us = l.sample_s * 1e6 / l.sampled;
  const double share = l.sample_s / (l.epoch_s * l.threads);
  const auto count = [&](const char* name, double value) {
    report->Add(name, value, "count");
  };
  report->Add("embedding.refresh_floor_us", l.refresh_floor_us, "us");
  report->Add("core.sample_us_per_triple", sample_us, "us");
  report->Add("core.sample_share", share, "ratio");
  report->Add("core.refresh_over_floor", sample_us / l.refresh_floor_us,
              "ratio");
  count("core.refreshes", static_cast<double>(l.cache.updates));
  count("core.selections", static_cast<double>(l.cache.selections));
  count("core.changed_per_refresh", l.cache.MeanChangedElements());
  report->Add("core.true_admissions_ratio",
              l.cache.updates == 0
                  ? 0.0
                  : static_cast<double>(l.cache.true_admissions) /
                        static_cast<double>(l.cache.updates),
              "ratio");
  count("core.cached_ids", static_cast<double>(l.cached_ids));
  report->Add("sampler.sample_us_per_triple", sample_us, "us");
  report->Add("sampler.sample_share", share, "ratio");
  report->Add("train.epoch_s", l.epoch_s / l.epochs, "s");
  report->Add("train.step_share", 1.0 - share, "ratio");
  report->Add("train.nzl", l.nzl, "ratio");
  count("train.epochs_to_target", l.epochs_to_target);
  report->Add("eval.queries_per_s", l.eval_queries / l.eval_s, "1/s");
}

std::string RequestLine(const Query& q) {
  std::ostringstream out;
  switch (q.kind) {
    case QueryKind::kScore:
      out << "SCORE " << q.h << ' ' << q.r << ' ' << q.t;
      break;
    case QueryKind::kRankTail:
      out << "RANK TAIL " << q.h << ' ' << q.r << ' ' << q.t;
      break;
    case QueryKind::kTopKTails:
      out << "TOPK TAILS " << q.h << ' ' << q.r << ' ' << q.k;
      break;
    default:  // The workloads send tail-side requests only.
      break;
  }
  return out.str();
}

namespace {

std::vector<std::string> Tokens(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) tokens.push_back(token);
  return tokens;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

}  // namespace

int64_t ResponseStep(const std::string& response) {
  const std::vector<std::string> tokens = Tokens(response);
  if (tokens.size() < 2 || tokens[0] == "ERR") return -1;
  return std::strtoll(tokens[1].c_str(), nullptr, 10);
}

std::string CheckAnswer(const Query& q, const std::string& response,
                        const KgeModel& model) {
  const std::vector<std::string> tokens = Tokens(response);
  if (tokens.empty() || tokens[0] == "ERR") return "error response: " + response;
  switch (q.kind) {
    case QueryKind::kScore: {
      if (tokens[0] != "SCORE" || tokens.size() < 3) return "malformed: " + response;
      const double expect = model.Score(q.h, q.r, q.t);
      if (!SameBits(std::strtod(tokens[2].c_str(), nullptr), expect)) {
        return "score differs: " + response;
      }
      return "";
    }
    case QueryKind::kRankTail: {
      if (tokens[0] != "RANK" || tokens.size() < 3) return "malformed: " + response;
      std::vector<double> scores(static_cast<size_t>(model.num_entities()));
      model.ScoreAllTails(q.h, q.r, scores.data());
      const double reference = scores[static_cast<size_t>(q.t)];
      int64_t rank = 1;
      for (const double s : scores) rank += s > reference ? 1 : 0;
      if (std::strtoll(tokens[2].c_str(), nullptr, 10) != rank) {
        return "rank differs: " + response;
      }
      return "";
    }
    case QueryKind::kTopKTails: {
      if (tokens[0] != "TOPK" || tokens.size() < 3) return "malformed: " + response;
      std::vector<TopKEntry> expect;
      model.TopKTails(q.h, q.r, q.k, &expect);
      const size_t n = std::strtoull(tokens[2].c_str(), nullptr, 10);
      if (n != expect.size() || tokens.size() < 3 + n) {
        return "topk size differs: " + response;
      }
      for (size_t i = 0; i < n; ++i) {
        const std::string& entry = tokens[3 + i];
        const size_t colon = entry.find(':');
        if (colon == std::string::npos) return "malformed: " + response;
        const size_t id = std::strtoull(entry.c_str(), nullptr, 10);
        const double score = std::strtod(entry.c_str() + colon + 1, nullptr);
        if (id != expect[i].index || !SameBits(score, expect[i].score)) {
          return "topk entry differs: " + response;
        }
      }
      return "";
    }
    default:
      return "no oracle for this request kind";
  }
}

}  // namespace perfbench
}  // namespace nsc
