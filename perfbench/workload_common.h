// Pieces shared by the three workloads: run options, traced set-up steps
// (graph, indexes, model), validation against the MRR target, the
// training-layer report, the serving answer oracle and request
// generation.
#ifndef NSCACHING_PERFBENCH_WORKLOAD_COMMON_H_
#define NSCACHING_PERFBENCH_WORKLOAD_COMMON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cache_stats.h"
#include "embedding/model.h"
#include "kg/dataset.h"
#include "kg/kg_index.h"
#include "measure.h"
#include "serve/query_engine.h"
#include "trace.h"
#include "util/rng.h"

namespace nsc {
namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Chrome trace output of a traced run ("" = not written).
  std::string trace_out;
};

/// Runs one named workload into `report`; false for an unknown name.
bool RunWorkload(const RunOptions& options, Report* report);

void RunTrainNSCaching(const RunOptions& options, Report* report);
void RunTrainBernoulliHogwild(const RunOptions& options, Report* report);
void RunServeMixed(const RunOptions& options, Report* report);

/// A synth-FB15K237 graph at `scale` with its train index (for samplers)
/// and train+valid+test index (for filtered evaluation).
struct Graph {
  Dataset data;
  std::unique_ptr<KgIndex> train_index;
  std::unique_ptr<KgIndex> filter_index;
  double generate_s = 0.0;
  double index_s = 0.0;
};

/// Generates the graph from `seed` (spans "kg.generate", "kg.index").
std::unique_ptr<Graph> BuildGraph(double scale, uint64_t seed,
                                  Tracer* tracer);

/// A Xavier-initialised TransE model (span "embedding.init").
std::unique_ptr<KgeModel> BuildTransE(int32_t entities, int32_t relations,
                                      int dim, uint64_t seed, Tracer* tracer);

/// The first (at most) kMaxValidTriples validation triples: the set the
/// MRR target is checked on, so a check costs the same at any scale.
inline constexpr size_t kMaxValidTriples = 1500;
TripleStore ValidationSet(const TripleStore& valid);

/// Filtered MRR of `model` on `split` at 1 thread (span
/// "eval.link_prediction"); adds its seconds and ranking queries (2 per
/// triple) to `eval_s` and `eval_queries`.
double EvalMrr(const KgeModel& model, const TripleStore& split,
               const KgIndex& filter, Tracer* tracer, double* eval_s,
               int64_t* eval_queries);

/// Where validation MRR first reaches a target: epoch k plus a fraction
/// of it, interpolated linearly between the two validation points that
/// bracket the crossing. Observe() the MRR before training (epoch 0) and
/// after each epoch until reached().
class TargetCrossing {
 public:
  explicit TargetCrossing(double target) : target_(target) {}
  void Observe(int epoch, double mrr);
  bool reached() const { return epoch_ > 0; }
  int epoch() const { return epoch_; }            ///< 0 = not reached.
  double fraction() const { return fraction_; }   ///< Part of epoch().
  /// The crossing in (fractional) epochs; 0 when not reached.
  double epochs() const { return epoch_ > 0 ? epoch_ - 1 + fraction_ : 0.0; }

 private:
  double target_;
  double prev_mrr_ = 0.0;
  int epoch_ = 0;
  double fraction_ = 0.0;
};

/// The paper's Table I floor for one NSCaching triple: scoring
/// `candidates` random ids per side with the Score{Head,Tail}Candidates
/// calls the cache refresh makes (span "embedding.refresh_floor").
/// Median of five passes over 2,000 triples of `train`, in microseconds
/// per triple.
double MeasureRefreshFloor(const KgeModel& model, const TripleStore& train,
                           int candidates, uint64_t seed, Tracer* tracer);

/// The training-side figures of a traced run. Every workload reports all
/// of them (see AddTrainingLayers).
struct TrainingLayers {
  double refresh_floor_us = 0.0;
  /// Time inside the (decorated) sampler during epochs, summed over
  /// threads, and the negatives it drew.
  double sample_s = 0.0;
  double sampled = 0.0;
  int threads = 1;
  double epoch_s = 0.0;   ///< Summed RunEpoch time.
  int epochs = 0;
  /// NSCachingSampler figures; zero when the workload bypasses core/.
  CacheStats cache;
  int64_t cached_ids = 0;
  double nzl = 0.0;
  int epochs_to_target = 0;
  double eval_s = 0.0;
  double eval_queries = 0.0;
};

/// Adds the embedding.refresh_floor_us, core.*, sampler.*, train.* and
/// eval.* metrics. core.sample_* and sampler.sample_* are both the
/// decorator's figures for the workload's sampler: on train-nscaching
/// that sampler is core/'s NSCaching, elsewhere core/ is bypassed, its
/// counters read 0 and the sampling figures are Bernoulli's.
void AddTrainingLayers(const TrainingLayers& layers, Report* report);

/// The serving half of the training workloads' end-to-end run: each
/// trained model the caller hands to Serve() is published, unchanged, as
/// one snapshot to an in-process ServeServer at nsc_serve's defaults,
/// and 2 closed-loop TCP connections send the mixed SCORE/RANK/TOPK
/// stream for a slice of time. Slices interleave with the caller's
/// trials, so a burst of steal on a shared host hits few of them; each
/// slice is one window of the serving figures (see WindowedSummary).
/// Every answer it checks comes from the snapshot of its slice.
class ServingSlices {
 public:
  explicit ServingSlices(uint64_t seed);
  ~ServingSlices();

  ServingSlices(const ServingSlices&) = delete;
  ServingSlices& operator=(const ServingSlices&) = delete;

  /// Serves `model` for `seconds` (the server starts on the first call).
  void Serve(const KgeModel& model, double seconds, Report* report);
  /// Stops the server; reports serve_qps, serve_p50_ms and serve_p99_ms
  /// and accounts the requests.
  void Finish(Report* report);

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// The traced counterpart: serves `model` the same way for `seconds`,
/// half over TCP and half through LocalClient, and reports the serving
/// per-layer metrics, with the trainer's publishing cost measured by the
/// caller (`publish_share`, `publishes_per_s`).
void ServeTrainedModelTraced(const KgeModel& model, double seconds,
                             uint64_t seed, double publish_share,
                             double publishes_per_s, Tracer* tracer,
                             Report* report);

/// Wire form of a SCORE, RANK TAIL or TOPK TAILS query (the kinds the
/// workloads send).
std::string RequestLine(const Query& query);

/// The snapshot step a response line reports; -1 when it has none (ERR).
int64_t ResponseStep(const std::string& response);

/// Checks the response line to a SCORE, RANK TAIL or TOPK TAILS query
/// against a direct KgeModel call on `model`, the model state at the step
/// the response reports: SCORE and TOPK scores bit-identical, RANK the
/// raw rank over all entities. Returns "" when the answer is right, else
/// what differs.
std::string CheckAnswer(const Query& query, const std::string& response,
                        const KgeModel& model);

/// Seconds elapsed since `start_ns` (NowNs()).
inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

}  // namespace perfbench
}  // namespace nsc

#endif  // NSCACHING_PERFBENCH_WORKLOAD_COMMON_H_
