// The two training workloads.
//
//   train-nscaching          synth-FB15K237 x1, TransE d=50, NSCaching at
//                            the paper's defaults, fused path, 1 thread.
//   train-bernoulli-hogwild  synth-FB15K237 x2, TransE d=50, Bernoulli,
//                            fused path, 2 Hogwild threads.
//
// A run is a fixed number of whole trials — set-up from scratch, a fixed
// number of epochs, evaluation — each on its own graph drawn from the
// run's seed, and reports medians over them. The trial count follows from
// --seconds alone, so a seed always does the same work. At 1 thread the
// last trial repeats the first one, and must reproduce it bit for bit.
// After each trial its trained model is served for a slice of time
// (ServingSlices); the slices add up to a fifth of --seconds and give the
// serving metrics.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/nscaching_sampler.h"
#include "sampler/bernoulli_sampler.h"
#include "serve/snapshot.h"
#include "timed_sampler.h"
#include "train/trainer.h"
#include "workload_common.h"

namespace nsc {
namespace perfbench {
namespace {

struct TrainSpec {
  double scale;      // synth-FB15K237 size multiplier.
  bool nscaching;    // NSCaching, else Bernoulli.
  int threads;
  int epochs;        // Per trial.
  double target_mrr; // Validation filtered MRR target.
  double min_test_mrr;  // Quality floor every trial must clear.
  double trial_s;    // Typical trial length on a 4-core x86 host.
};

// The MRR target sits on the steepest part of the validation curve, the
// first epoch: MRR goes from ~0.003 at init to 0.27-0.29 after one epoch
// of NSCaching and 0.22-0.25 after one of Bernoulli on the tuning seeds,
// and rises slowly after that. There a graph-to-graph difference in MRR
// moves the crossing time least. Later epochs leave room for slower
// graphs.
constexpr TrainSpec kNSCachingSpec{1.0, true, 1, 2, 0.25, 0.25, 2.7};
constexpr TrainSpec kHogwildSpec{2.0, false, 2, 50, 0.15, 0.2, 3.2};

/// Serving after the trials adds up to this share of --seconds.
constexpr double kServeShare = 0.2;

/// Trials of a run: enough to fill `seconds` at the typical trial length.
int TrialCount(const TrainSpec& spec, double seconds) {
  return std::max(3, static_cast<int>(std::lround(seconds / spec.trial_s)));
}

/// The seed of trial `i`; each trial generates its own graph from it.
uint64_t TrialSeed(uint64_t seed, int i) { return DeriveSeed(seed, 1000 + i); }

struct TrialResult {
  double setup_s = 0.0;
  int non_finite_epochs = 0;
  double nzl = 0.0;      // Mean nonzero-loss ratio over the epochs.
  double test_mrr = 0.0;
  int epochs_to_target = 0;     // 0 = target missed.
  double target_fraction = 0.0; // Interpolated part of that epoch.
  CacheStats cache;
  int64_t cached_ids = 0;
  double sampler_busy_s = 0.0;  // Decorated trials only.
  int64_t sampled = 0;
  double eval_s = 0.0;
  int64_t eval_queries = 0;
  double refresh_floor_us = 0.0;  // Traced trials only.

  std::vector<double> epoch_seconds;  // EpochStats::seconds of each epoch.
  std::vector<double> epoch_rates;    // Triples per second of each epoch.
};

/// Called at the end of a trial with its trained model and trainer.
using TrialHook =
    std::function<void(const KgeModel& model, Trainer* trainer)>;

/// One trial: set-up from scratch, spec.epochs epochs with validation
/// until the MRR target is reached, test evaluation. With `tracer` set,
/// the sampler is wrapped in the TimedSampler decorator and every layer
/// call gets a span.
TrialResult RunTrial(const TrainSpec& spec, uint64_t seed, Tracer* tracer,
                     const TrialHook& hook = nullptr) {
  TrialResult r;
  const int64_t setup_start = NowNs();
  const std::unique_ptr<Graph> graph =
      BuildGraph(spec.scale, DeriveSeed(seed, 1), tracer);
  const Dataset& data = graph->data;
  const std::unique_ptr<KgeModel> model =
      BuildTransE(data.num_entities(), data.num_relations(), 50,
                  DeriveSeed(seed, 2), tracer);
  std::unique_ptr<NSCachingSampler> nscaching;
  std::unique_ptr<BernoulliSampler> bernoulli;
  NegativeSampler* sampler = nullptr;
  if (spec.nscaching) {
    nscaching = std::make_unique<NSCachingSampler>(
        model.get(), graph->train_index.get(), NSCachingConfig());
    sampler = nscaching.get();
  } else {
    bernoulli = std::make_unique<BernoulliSampler>(data.num_entities(),
                                                   graph->train_index.get());
    sampler = bernoulli.get();
  }
  std::unique_ptr<TimedSampler> timed;
  if (tracer != nullptr) {
    timed = std::make_unique<TimedSampler>(
        sampler, tracer, spec.nscaching ? "core.sample" : "sampler.sample");
    sampler = timed.get();
  }
  TrainConfig config;
  config.dim = 50;
  config.learning_rate = 0.003;
  config.margin = 4.0;
  config.batch_size = 256;
  config.num_threads = spec.threads;
  config.fused_scoring = true;
  config.seed = DeriveSeed(seed, 3);
  Trainer trainer(model.get(), &data.train, sampler, config);
  r.setup_s = SecondsSince(setup_start);

  const TripleStore valid = ValidationSet(data.valid);
  TargetCrossing crossing(spec.target_mrr);
  const auto validate = [&](int epoch) {
    if (crossing.reached()) return;
    crossing.Observe(epoch, EvalMrr(*model, valid, *graph->filter_index,
                                    tracer, &r.eval_s, &r.eval_queries));
  };
  validate(0);
  for (int e = 1; e <= spec.epochs; ++e) {
    EpochStats stats;
    {
      ScopedSpan span(tracer, "train.epoch");
      stats = trainer.RunEpoch();
    }
    r.epoch_seconds.push_back(stats.seconds);
    r.epoch_rates.push_back(static_cast<double>(data.train.size()) /
                            stats.seconds);
    r.nzl += stats.nonzero_loss_ratio / spec.epochs;
    if (!std::isfinite(stats.mean_loss)) ++r.non_finite_epochs;
    validate(e);
  }
  r.epochs_to_target = crossing.epoch();
  r.target_fraction = crossing.fraction();
  r.test_mrr = EvalMrr(*model, data.test, *graph->filter_index, tracer,
                       &r.eval_s, &r.eval_queries);
  if (nscaching != nullptr) {
    r.cache = nscaching->stats();
    r.cached_ids = static_cast<int64_t>(nscaching->head_cache().num_cached_ids() +
                                        nscaching->tail_cache().num_cached_ids());
  }
  if (timed != nullptr) {
    r.sampler_busy_s = timed->busy_seconds();
    r.sampled = timed->sampled();
    const NSCachingConfig nc;  // The candidates a refresh would score.
    r.refresh_floor_us = MeasureRefreshFloor(
        *model, data.train, nc.n1 + nc.n2, DeriveSeed(seed, 4), tracer);
  }
  if (hook) hook(*model, &trainer);
  return r;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// What must repeat exactly between two 1-thread NSCaching trials of the
/// same trial seed ("" when it does).
std::string DeterminismDiff(const TrialResult& a, const TrialResult& b) {
  if (!SameBits(a.test_mrr, b.test_mrr)) return "test_mrr";
  if (a.epochs_to_target != b.epochs_to_target ||
      !SameBits(a.target_fraction, b.target_fraction)) {
    return "the target crossing";
  }
  if (a.cache.updates != b.cache.updates) return "cache refreshes";
  if (a.cache.selections != b.cache.selections) return "cache selections";
  if (a.cache.changed_elements != b.cache.changed_elements) {
    return "cache changed elements";
  }
  if (a.cache.true_admissions != b.cache.true_admissions) {
    return "cache true admissions";
  }
  if (a.cached_ids != b.cached_ids) return "cached ids";
  return "";
}

/// Counts a trial's epochs and its failures into the report.
void Account(const TrainSpec& spec, const TrialResult& r, Report* report) {
  report->Attempt(spec.epochs);
  if (r.non_finite_epochs > 0) {
    report->Fail("non-finite epoch loss", r.non_finite_epochs);
  }
  if (r.epochs_to_target == 0) {
    report->Fail("validation MRR never reached the target");
  }
  if (!(r.test_mrr >= spec.min_test_mrr)) {
    report->Fail("test MRR " + std::to_string(r.test_mrr) +
                 " below the quality floor");
  }
}

template <typename F>
std::vector<double> Collect(const std::vector<TrialResult>& trials, F f) {
  std::vector<double> out;
  for (const TrialResult& t : trials) out.push_back(f(t));
  return out;
}

/// Median triples per second over every epoch of `trials`.
double MedianEpochRate(const std::vector<TrialResult>& trials) {
  std::vector<double> rates;
  for (const TrialResult& t : trials) {
    rates.insert(rates.end(), t.epoch_rates.begin(), t.epoch_rates.end());
  }
  return Median(rates);
}

/// Training seconds to the MRR target. Each trial's crossing — epoch k
/// plus an interpolated fraction of it, exact at 1 thread — is priced at
/// median epoch times over all of the run's trials, so one slow epoch on
/// a shared host does not decide a trial's value. NSCaching's first epoch
/// also fills the caches, so there each epoch index has its own median;
/// Bernoulli epochs all do the same work and share the median of all.
double TimeToTarget(const TrainSpec& spec,
                    const std::vector<TrialResult>& priced,
                    const std::vector<TrialResult>& all) {
  std::vector<double> every;
  for (const TrialResult& t : all) {
    every.insert(every.end(), t.epoch_seconds.begin(), t.epoch_seconds.end());
  }
  const double any_epoch = Median(every);
  const auto epoch_s = [&](int e) {
    if (!spec.nscaching) return any_epoch;
    return Median(Collect(
        all, [e](const TrialResult& a) { return a.epoch_seconds[e - 1]; }));
  };
  std::vector<double> times;
  for (const TrialResult& t : priced) {
    if (t.epochs_to_target == 0) continue;
    double seconds = 0.0;
    for (int e = 1; e <= t.epochs_to_target; ++e) {
      seconds += e < t.epochs_to_target ? epoch_s(e)
                                        : epoch_s(e) * t.target_fraction;
    }
    times.push_back(seconds);
  }
  return Median(times);
}

/// The trainer's cost of publishing a snapshot every mini-batch:
/// alternating epochs without and with publishing, 2 of each. `share` is
/// 1 - (throughput with ÷ throughput without), from the median epochs;
/// `per_s` is publishes per second of publishing epoch.
void MeasurePublishCost(const KgeModel& model, Trainer* trainer,
                        double* share, double* per_s) {
  SnapshotPublisher publisher;
  publisher.Publish(model, trainer->global_step());
  std::vector<double> without, with;
  double publish_s = 0.0;
  int64_t publishes = 0;
  for (int i = 0; i < 2; ++i) {
    trainer->EnableSnapshots(nullptr);
    without.push_back(trainer->RunEpoch().seconds);
    trainer->EnableSnapshots(&publisher);
    const int64_t before = publisher.published_step();
    with.push_back(trainer->RunEpoch().seconds);
    publish_s += with.back();
    publishes += publisher.published_step() - before;
  }
  trainer->EnableSnapshots(nullptr);
  *share = 1.0 - Median(without) / Median(with);
  *per_s = static_cast<double>(publishes) / publish_s;
}

void RunTrainWorkload(const TrainSpec& spec, const RunOptions& options,
                      Report* report) {
  if (!options.trace) {
    // End-to-end: untraced trials, medians over them. At 1 thread the
    // last trial repeats the first (same seed) and must match it exactly;
    // it only adds epochs to the throughput sample. Each trial's model
    // is then served for a slice.
    const int n = TrialCount(spec, options.seconds);
    const bool repeat = spec.threads == 1;
    std::vector<TrialResult> trials, all;  // Distinct trials; with repeat.
    ServingSlices serving(DeriveSeed(options.seed, 5));
    const TrialHook serve = [&](const KgeModel& model, Trainer*) {
      serving.Serve(model, kServeShare * options.seconds / n, report);
    };
    for (int i = 0; i < n; ++i) {
      const bool is_repeat = repeat && i == n - 1;
      all.push_back(RunTrial(spec, TrialSeed(options.seed, is_repeat ? 0 : i),
                             nullptr, serve));
      const TrialResult& t = all.back();
      Account(spec, t, report);
      if (!is_repeat) {
        trials.push_back(t);
        continue;
      }
      const std::string diff = DeterminismDiff(trials.front(), t);
      if (!diff.empty()) report->Fail("repeated trial differs in " + diff);
    }
    serving.Finish(report);
    std::printf("%d trials\n", n);
    report->Add("setup_s", Median(Collect(trials, [](const TrialResult& t) {
                  return t.setup_s;
                })), "s");
    report->Add("peak_rss_mb", PeakRssMb(), "MB");
    report->Add("train_triples_per_s", MedianEpochRate(all), "1/s");
    report->Add("time_to_target_s", TimeToTarget(spec, trials, all), "s");
    report->Add("test_mrr", Median(Collect(trials, [](const TrialResult& t) {
                  return t.test_mrr;
                })), "ratio");
    return;
  }

  // Traced: each trial runs plain, then decorated and traced. The plain
  // ones are the baseline of the tracing overhead and, at 1 thread, the
  // oracle the decorated trials must reproduce bit for bit. The last
  // traced trial then measures the trainer's publishing cost and serves
  // its model.
  Tracer tracer;
  std::vector<TrialResult> plain, traced;
  const int pairs = std::max(1, TrialCount(spec, options.seconds) / 2);
  const TrialHook serve = [&](const KgeModel& model, Trainer* trainer) {
    double share = 0.0, per_s = 0.0;
    MeasurePublishCost(model, trainer, &share, &per_s);
    ServeTrainedModelTraced(model, kServeShare * options.seconds,
                            DeriveSeed(options.seed, 5), share, per_s,
                            &tracer, report);
  };
  for (int i = 0; i < pairs; ++i) {
    plain.push_back(RunTrial(spec, TrialSeed(options.seed, i), nullptr));
    traced.push_back(RunTrial(spec, TrialSeed(options.seed, i), &tracer,
                              i == pairs - 1 ? serve : nullptr));
    Account(spec, plain.back(), report);
    Account(spec, traced.back(), report);
    if (spec.threads == 1) {
      const std::string diff = DeterminismDiff(plain.back(), traced.back());
      if (!diff.empty()) report->Fail("decorated trial differs in " + diff);
    }
  }
  const std::vector<Span> spans = tracer.spans();
  const auto totals = Summarize(spans);
  const auto total = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? SpanTotals() : it->second;
  };
  const double n = static_cast<double>(traced.size());
  report->Add("kg.generate_s", total("kg.generate").total_s / n, "s");
  report->Add("kg.index_s", total("kg.index").total_s / n, "s");
  report->Add("embedding.init_s", total("embedding.init").total_s / n, "s");
  TrainingLayers layers;
  layers.threads = spec.threads;
  for (const TrialResult& t : traced) {
    layers.sample_s += t.sampler_busy_s;
    layers.sampled += static_cast<double>(t.sampled);
    for (const double s : t.epoch_seconds) layers.epoch_s += s;
    layers.epochs += spec.epochs;
    layers.eval_s += t.eval_s;
    layers.eval_queries += static_cast<double>(t.eval_queries);
  }
  const TrialResult& first = traced.front();
  layers.refresh_floor_us = Median(
      Collect(traced, [](const TrialResult& t) { return t.refresh_floor_us; }));
  layers.cache = first.cache;
  layers.cached_ids = first.cached_ids;
  layers.nzl =
      Median(Collect(traced, [](const TrialResult& t) { return t.nzl; }));
  layers.epochs_to_target = first.epochs_to_target;
  AddTrainingLayers(layers, report);
  report->Add("trace.overhead_share",
              1.0 - MedianEpochRate(traced) / MedianEpochRate(plain), "ratio");
  std::printf("%zu traced trials, %zu spans (%lld dropped)\n", traced.size(),
              spans.size(), static_cast<long long>(tracer.dropped()));
  if (!options.trace_out.empty() && !tracer.WriteChromeTrace(options.trace_out)) {
    report->Flag("cannot write " + options.trace_out);
  }
}

}  // namespace

void RunTrainNSCaching(const RunOptions& options, Report* report) {
  RunTrainWorkload(kNSCachingSpec, options, report);
}

void RunTrainBernoulliHogwild(const RunOptions& options, Report* report) {
  RunTrainWorkload(kHogwildSpec, options, report);
}

}  // namespace perfbench
}  // namespace nsc
