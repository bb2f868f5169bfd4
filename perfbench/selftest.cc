// Self-tests of the benchmark's own machinery:
//   - span self-time arithmetic;
//   - the TimedSampler decorator forwards every trait and call, and a
//     decorated 1-thread NSCaching run is bit-identical to an undecorated
//     one;
//   - the percentile guard (fewer than 10 samples beyond p99 flags);
//   - the workload seed is honoured, and the reserved verification seed
//     lies outside the tuning seeds;
//   - the serving answer oracle accepts right answers and rejects wrong
//     ones.
// Run with `python3 perfbench/run.py --self-test`; exits non-zero on any
// failure.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/nscaching_sampler.h"
#include "kg/synthetic.h"
#include "measure.h"
#include "serve/protocol.h"
#include "timed_sampler.h"
#include "trace.h"
#include "train/trainer.h"
#include "workload_common.h"

namespace nsc {
namespace perfbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,     \
                   __LINE__, #cond);                                   \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

bool Near(double a, double b) { return std::abs(a - b) < 1e-12; }

Span MakeSpan(const char* name, int64_t start, int64_t end, int32_t parent) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

void TestSelfTime() {
  // Parent [0, 1000) ns; children overlap each other and one runs past
  // the parent's end: covered = [100, 500) + [900, 1000) = 500 ns.
  std::vector<Span> spans = {
      MakeSpan("parent", 0, 1000, -1), MakeSpan("child", 100, 300, 0),
      MakeSpan("child", 200, 500, 0), MakeSpan("child", 900, 1200, 0),
      MakeSpan("grandchild", 120, 180, 1), MakeSpan("open", 0, -1, -1)};
  const std::vector<double> self = SelfSeconds(spans);
  EXPECT(Near(self[0], 500e-9));
  EXPECT(Near(self[1], 140e-9));  // 200 minus its 60 ns grandchild.
  EXPECT(Near(self[2], 300e-9));
  EXPECT(Near(self[5], 0.0));     // Open spans have no self time.
  const auto totals = Summarize(spans);
  EXPECT(totals.at("child").count == 3);
  EXPECT(Near(totals.at("child").total_s, 800e-9));
  EXPECT(Near(totals.at("child").self_s, 740e-9));
  EXPECT(totals.count("open") == 0);

  // Live spans nest by thread: the inner span's parent is the outer one.
  Tracer tracer;
  {
    ScopedSpan outer(&tracer, "outer", 7);
    ScopedSpan inner(&tracer, "inner");
  }
  const std::vector<Span> live = tracer.spans();
  EXPECT(live.size() == 2);
  EXPECT(live[0].parent == -1 && live[0].request == 7);
  EXPECT(live[1].parent == 0);
  EXPECT(live[1].start_ns >= live[0].start_ns && live[1].end_ns <= live[0].end_ns);

  Tracer tiny(1);
  { ScopedSpan a(&tiny, "kept"); }
  { ScopedSpan b(&tiny, "dropped"); }
  EXPECT(tiny.spans().size() == 1 && tiny.dropped() == 1);
}

/// Records every call; traits are configurable.
class FakeSampler : public NegativeSampler {
 public:
  FakeSampler(bool stateless, bool thread_safe)
      : stateless_(stateless), thread_safe_(thread_safe) {}
  std::string name() const override { return "fake"; }
  NegativeSample Sample(const Triple& pos, Rng* rng) override {
    ++samples;
    NegativeSample n;
    n.triple = pos;
    n.triple.t = static_cast<EntityId>(rng->UniformInt(uint64_t{100}));
    return n;
  }
  void SampleBatch(const Triple* pos, size_t n, Rng* rng,
                   NegativeSample* out) override {
    ++batches;
    NegativeSampler::SampleBatch(pos, n, rng, out);
  }
  bool stateless_sampling() const override { return stateless_; }
  bool thread_safe_sampling() const override { return thread_safe_; }
  void Feedback(const Triple&, const NegativeSample&, double) override {
    ++feedbacks;
  }
  void BeginEpoch(int epoch) override { last_epoch = epoch; }

  int samples = 0, batches = 0, feedbacks = 0, last_epoch = -1;

 private:
  bool stateless_, thread_safe_;
};

void TestDecoratorForwards() {
  for (const bool stateless : {false, true}) {
    for (const bool thread_safe : {false, true}) {
      FakeSampler fake(stateless, thread_safe);
      TimedSampler timed(&fake, nullptr, "fake.sample");
      EXPECT(timed.stateless_sampling() == stateless);
      EXPECT(timed.thread_safe_sampling() == thread_safe);
      EXPECT(timed.name() == "fake");
    }
  }
  FakeSampler fake(false, true);
  Tracer tracer;
  TimedSampler timed(&fake, &tracer, "fake.sample");
  Rng rng(3);
  const Triple pos{1, 2, 3};
  timed.Sample(pos, &rng);
  std::vector<Triple> batch(5, pos);
  std::vector<NegativeSample> out(5);
  timed.SampleBatch(batch.data(), batch.size(), &rng, out.data());
  timed.Feedback(pos, out[0], 0.5);
  timed.BeginEpoch(4);
  EXPECT(fake.samples == 6);  // 1 direct + 5 through the inner batch.
  EXPECT(fake.batches == 1);  // SampleBatch reached the inner SampleBatch.
  EXPECT(fake.feedbacks == 1);
  EXPECT(fake.last_epoch == 4);
  EXPECT(timed.sampled() == 6);
  EXPECT(timed.busy_seconds() > 0.0);
  EXPECT(tracer.spans().size() == 1);  // One span per SampleBatch.

  // The real NSCaching sampler keeps its in-worker sampling trait.
  SyntheticKgConfig config;
  config.num_entities = 200;
  config.num_relations = 6;
  config.num_triples = 2000;
  const Dataset data = GenerateSyntheticKg(config);
  const KgIndex index(data.train);
  const auto model = BuildTransE(data.num_entities(), data.num_relations(), 16,
                                 1, nullptr);
  NSCachingSampler nscaching(model.get(), &index, NSCachingConfig());
  TimedSampler timed_nsc(&nscaching, nullptr, "core.sample");
  EXPECT(timed_nsc.thread_safe_sampling() == nscaching.thread_safe_sampling());
  EXPECT(timed_nsc.stateless_sampling() == nscaching.stateless_sampling());
}

/// Trains 2 epochs of 1-thread NSCaching, decorated or not; returns the
/// final loss and the cache counters.
std::pair<double, CacheStats> TrainSmall(bool decorate) {
  SyntheticKgConfig config;
  config.num_entities = 200;
  config.num_relations = 6;
  config.num_triples = 2000;
  const Dataset data = GenerateSyntheticKg(config);
  const KgIndex index(data.train);
  const auto model = BuildTransE(data.num_entities(), data.num_relations(), 16,
                                 5, nullptr);
  NSCachingConfig nc;
  nc.n1 = 10;
  nc.n2 = 10;
  NSCachingSampler nscaching(model.get(), &index, nc);
  Tracer tracer;
  TimedSampler timed(&nscaching, &tracer, "core.sample");
  TrainConfig train;
  train.dim = 16;
  train.num_threads = 1;
  train.seed = 9;
  Trainer trainer(model.get(), &data.train,
                  decorate ? static_cast<NegativeSampler*>(&timed) : &nscaching,
                  train);
  double loss = 0.0;
  for (int e = 0; e < 2; ++e) loss = trainer.RunEpoch().mean_loss;
  return {loss, nscaching.stats()};
}

void TestDecoratorChangesNothing() {
  const auto plain = TrainSmall(false);
  const auto decorated = TrainSmall(true);
  EXPECT(std::memcmp(&plain.first, &decorated.first, sizeof(double)) == 0);
  EXPECT(plain.second.updates == decorated.second.updates);
  EXPECT(plain.second.selections == decorated.second.selections);
  EXPECT(plain.second.changed_elements == decorated.second.changed_elements);
  EXPECT(plain.second.true_admissions == decorated.second.true_admissions);
}

void TestPercentileGuard() {
  std::vector<double> values;
  for (int i = 1; i <= 999; ++i) values.push_back(i);
  LatencySummary s = Summarize(values);
  EXPECT(s.samples == 999);
  EXPECT(s.beyond_p99 == 9);  // p99 = 990 (nearest rank 990).
  EXPECT(!s.p99_supported);
  values.push_back(1000);
  s = Summarize(values);
  EXPECT(s.p50 == 500 && s.p99 == 990);
  EXPECT(s.beyond_p99 == 10 && s.p99_supported);
  // Ties at the percentile do not count as beyond it.
  s = Summarize(std::vector<double>(2000, 1.0));
  EXPECT(s.beyond_p99 == 0 && !s.p99_supported);

  Report report;
  report.Attempt(3);
  report.Add("x", 1.5, "s");
  EXPECT(report.correct());
  report.Flag("too few tail samples");
  EXPECT(!report.correct() && report.failed() == 0);
  report.Fail("bad answer");
  EXPECT(report.failed() == 1);
  EXPECT(report.ToJson() ==
         "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": "
         "{\"x\": {\"value\": 1.5, \"unit\": \"s\"}}}");
  EXPECT(Median({3, 1, 2}) == 2 && Median({4, 1, 2, 3}) == 2.5);
}

bool SameTriples(const TripleStore& a, const TripleStore& b) {
  return a.triples() == b.triples();
}

void TestWindowedSummary() {
  // 10 windows of 1 s with 2,000 samples each: 10 us, except that 20 per
  // window are 100 us (beyond p99) and window 3 stalls at 5,000 us.
  std::vector<double> values;
  std::vector<int64_t> done;
  for (int w = 0; w < 10; ++w) {
    for (int i = 0; i < 2000; ++i) {
      values.push_back(w == 3 ? 5000.0 : i < 20 ? 100.0 : 10.0);
      done.push_back(w * 1000000000LL + i * 500000LL);
    }
  }
  const std::vector<Window> ten = EqualWindows(0, 10000000000LL, 20000);
  WindowedSummary s = SummarizeWindows(values, done, ten);
  EXPECT(s.windows == 10 && s.kept == 10 && s.samples == 20000);
  EXPECT(Near(s.rate, 2000.0) && Near(s.p50, 10.0) && Near(s.p99, 10.0));
  EXPECT(s.min_beyond_p99 == 0);  // The stalled window has none beyond.
  // Equal steal everywhere keeps every window.
  s = SummarizeWindows(values, done, ten,
                       [](int64_t a, int64_t b) { return 1e-9 * (b - a); });
  EXPECT(s.kept == 10 && s.min_beyond_p99 == 0);
  // Steal in windows 3 and 7 sets exactly those two aside.
  s = SummarizeWindows(values, done, ten,
                       [](int64_t a, int64_t) {
                         const int64_t w = a / 1000000000LL;
                         return w == 3 || w == 7 ? 0.2 : 0.01;
                       });
  EXPECT(s.kept == 8 && s.min_beyond_p99 == 20 && Near(s.p99, 10.0));
  // Steal in every window but the stalled one keeps the stalled one and
  // the least-stolen half of the rest: no more than half is set aside.
  s = SummarizeWindows(values, done, ten,
                       [](int64_t a, int64_t) {
                         const int64_t w = a / 1000000000LL;
                         return w == 3 ? 0.0 : 0.01 * static_cast<double>(w);
                       });
  EXPECT(s.kept == 5 && s.min_beyond_p99 == 0);
  // With the stall gone every window has 20 beyond its p99.
  for (int i = 6000; i < 8000; ++i) values[i] = i < 6020 ? 100.0 : 10.0;
  s = SummarizeWindows(values, done, ten);
  EXPECT(s.min_beyond_p99 == 20);
  // Fewer samples, fewer windows: 3,000 samples make one window.
  values.resize(3000);
  done.resize(3000);
  s = SummarizeWindows(values, done, EqualWindows(0, 1500000000LL, 3000));
  EXPECT(s.windows == 1 && s.samples == 3000);
  // Windows with gaps between them: a sample counts in the last window
  // that started before it completed.
  s = SummarizeWindows({1.0, 2.0, 3.0, 4.0}, {5, 15, 25, 35},
                       {{0, 10}, {20, 30}});
  EXPECT(s.windows == 2 && s.kept == 2 && Near(s.p50, 2.0) && Near(s.p99, 3.0));
}

void TestStealMonitor() {
  // Two samples 300 ms apart at least; steal never runs backwards.
  const StealMonitor monitor;
  const int64_t start = NowNs();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const int64_t end = NowNs();
  EXPECT(monitor.Between(start, end) >= 0.0);
  EXPECT(monitor.Between(start, start) == 0.0);
  EXPECT(StealSeconds() >= 0.0);
}

void TestSeedHonoured() {
  const auto a = BuildGraph(0.1, DeriveSeed(1, 1), nullptr);
  const auto b = BuildGraph(0.1, DeriveSeed(1, 1), nullptr);
  const auto c = BuildGraph(0.1, DeriveSeed(2, 1), nullptr);
  EXPECT(SameTriples(a->data.train, b->data.train));
  EXPECT(SameTriples(a->data.test, b->data.test));
  EXPECT(!SameTriples(a->data.train, c->data.train));
  EXPECT(DeriveSeed(1, 1) != DeriveSeed(1, 2));
  EXPECT(DeriveSeed(1, 1) != DeriveSeed(2, 1));
  // The reserved seed is never one of the tuning seeds 1-100.
  EXPECT(kReservedVerificationSeed > 100);
  const auto reserved =
      BuildGraph(0.1, DeriveSeed(kReservedVerificationSeed, 1), nullptr);
  EXPECT(!SameTriples(a->data.train, reserved->data.train));
}

void TestAnswerOracle() {
  const auto model = BuildTransE(300, 4, 8, 11, nullptr);
  Query score{QueryKind::kScore, 1, 2, 3, 0};
  QueryResult result;
  result.kind = QueryKind::kScore;
  result.step = 5;
  result.score = model->Score(1, 2, 3);
  std::string line = FormatResponse(result);
  line.pop_back();  // The newline.
  EXPECT(RequestLine(score) == "SCORE 1 2 3");
  EXPECT(ResponseStep(line) == 5);
  EXPECT(CheckAnswer(score, line, *model).empty());
  result.score = std::nextafter(result.score, 1e9);  // One ulp off.
  line = FormatResponse(result);
  EXPECT(!CheckAnswer(score, line, *model).empty());

  Query topk{QueryKind::kTopKTails, 7, 1, 0, 5};
  result.kind = QueryKind::kTopKTails;
  model->TopKTails(7, 1, 5, &result.topk);
  line = FormatResponse(result);
  EXPECT(RequestLine(topk) == "TOPK TAILS 7 1 5");
  EXPECT(CheckAnswer(topk, line, *model).empty());
  std::swap(result.topk[0], result.topk[1]);
  EXPECT(!CheckAnswer(topk, FormatResponse(result), *model).empty());

  Query rank{QueryKind::kRankTail, 7, 1, 9, 0};
  result.kind = QueryKind::kRankTail;
  std::vector<double> scores(300);
  model->ScoreAllTails(7, 1, scores.data());
  result.rank = 1;
  for (const double s : scores) result.rank += s > scores[9] ? 1 : 0;
  EXPECT(CheckAnswer(rank, FormatResponse(result), *model).empty());
  ++result.rank;
  EXPECT(!CheckAnswer(rank, FormatResponse(result), *model).empty());
  EXPECT(!CheckAnswer(rank, "ERR overloaded", *model).empty());
  EXPECT(ResponseStep("ERR overloaded") == -1);
}

void TestTargetCrossing() {
  // 0.1 before training, 0.2 after epoch 1, 0.4 after epoch 2: a 0.3
  // target is crossed half way through epoch 2.
  TargetCrossing crossing(0.3);
  crossing.Observe(0, 0.1);
  EXPECT(!crossing.reached());
  crossing.Observe(1, 0.2);
  EXPECT(!crossing.reached() && crossing.epochs() == 0.0);
  crossing.Observe(2, 0.4);
  EXPECT(crossing.reached() && crossing.epoch() == 2);
  EXPECT(Near(crossing.fraction(), 0.5) && Near(crossing.epochs(), 1.5));
  crossing.Observe(3, 0.9);  // Later points do not move the crossing.
  EXPECT(crossing.epoch() == 2 && Near(crossing.fraction(), 0.5));
}

void TestTrainingLayersComplete() {
  // Every workload reports the training layers through one function; on
  // a workload that bypasses core/ its counters still appear, as 0.
  TrainingLayers layers;
  layers.refresh_floor_us = 5.0;
  layers.sample_s = 1.0;
  layers.sampled = 1e6;
  layers.epoch_s = 4.0;
  layers.epochs = 2;
  layers.eval_s = 1.0;
  layers.eval_queries = 100;
  Report report;
  AddTrainingLayers(layers, &report);
  const std::string json = report.ToJson();
  for (const char* name :
       {"embedding.refresh_floor_us", "core.sample_us_per_triple",
        "core.sample_share", "core.refresh_over_floor", "core.refreshes",
        "core.selections", "core.changed_per_refresh",
        "core.true_admissions_ratio", "core.cached_ids",
        "sampler.sample_us_per_triple", "sampler.sample_share",
        "train.epoch_s", "train.step_share", "train.nzl",
        "train.epochs_to_target", "eval.queries_per_s"}) {
    EXPECT(json.find("\"" + std::string(name) + "\"") != std::string::npos);
  }
  EXPECT(json.find("\"core.sample_share\": {\"value\": 0.25") !=
         std::string::npos);
}

}  // namespace
}  // namespace perfbench
}  // namespace nsc

int main() {
  using namespace nsc::perfbench;
  TestSelfTime();
  TestDecoratorForwards();
  TestDecoratorChangesNothing();
  TestPercentileGuard();
  TestWindowedSummary();
  TestStealMonitor();
  TestSeedHonoured();
  TestAnswerOracle();
  TestTargetCrossing();
  TestTrainingLayersComplete();
  if (failures > 0) {
    std::fprintf(stderr, "perfbench self-test: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("perfbench self-test: all passed\n");
  return 0;
}
