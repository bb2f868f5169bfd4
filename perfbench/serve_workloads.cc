// Serving: the serve-mixed-while-training workload, and the serving of
// the two training workloads' trained models (ServingSlices,
// ServeTrainedModelTraced).
//
// serve-mixed-while-training: Bernoulli TransE training on
// synth-FB15K237 x2 (1 thread, a snapshot published every mini-batch)
// while 2 closed-loop TCP connections send 60% SCORE, 20% RANK TAIL and
// 20% TOPK TAILS .. 10 to an in-process ServeServer at nsc_serve's
// defaults. Training runs a fixed number of epochs, with validation MRR
// after each epoch until it reaches the target and test MRR at the end;
// the clients stop when training does. The run sets up 5 times, each on
// its own graph, and trains each discarded set-up to the target too, so
// the crossing is a median over 5 graphs.
//
// Latency is the client-side TCP round trip. Serving counters are read
// only after ServeServer::Shutdown(): the idle-reap path bumps them after
// close(), so an earlier read can race.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/nscaching_sampler.h"
#include "sampler/bernoulli_sampler.h"
#include "serve/local_client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "tcp_client.h"
#include "timed_sampler.h"
#include "train/trainer.h"
#include "workload_common.h"

namespace nsc {
namespace perfbench {
namespace {

constexpr std::size_t kTopK = 10;
constexpr double kScale = 2.0;
constexpr int kConnections = 2;
// Set-ups of a run, each on its own graph: setup_s is their median, and
// time_to_target_s prices the median of their crossings.
constexpr int kSetups = 5;
constexpr int64_t kOracleEvery = 16;      // Answers checked in flight.
// Training epochs of a run: one per kEpochS seconds of --seconds, a
// little more than a publishing epoch takes under the TCP load (30-40
// ms), so that set-up and evaluation fit in the run's time too.
constexpr double kEpochS = 0.04;
// Validation MRR target: crossed in the first epoch, where the curve is
// steepest (0.22-0.25 after it on the tuning seeds). Test MRR floor after
// the run's epochs.
constexpr double kTargetMrr = 0.15;
constexpr double kMinTestMrr = 0.2;
// Epochs a set-up's graph may take to reach the target.
constexpr int kMaxProbeEpochs = 10;

/// What one closed-loop client saw.
struct ClientLog {
  std::vector<double> latency_us;
  std::vector<int64_t> done_ns;  // When each TCP request completed.
  int64_t errors = 0;  // ERR answers and broken connections.
  std::vector<std::string> lines;    // Request lines, for protocol replay.
  std::vector<QueryResult> results;  // LocalClient answers, for replay.
  int64_t checked = 0;
  int64_t mismatches = 0;
  double lag_steps = 0.0;  // Sum of (published step - answer step).
  int64_t lag_samples = 0;
};

using QueryGen = std::function<Query(Rng*)>;

/// The workload's requests over a graph of the given size: 60% SCORE,
/// 20% RANK TAIL, 20% TOPK TAILS, ids drawn uniformly.
QueryGen MixedQueries(int32_t entities, int32_t relations) {
  return [entities, relations](Rng* rng) {
    Query q;
    const uint64_t pick = rng->UniformInt(uint64_t{10});
    q.kind = pick < 6   ? QueryKind::kScore
             : pick < 8 ? QueryKind::kRankTail
                        : QueryKind::kTopKTails;
    q.h = static_cast<EntityId>(rng->UniformInt(static_cast<uint64_t>(entities)));
    q.r = static_cast<RelationId>(
        rng->UniformInt(static_cast<uint64_t>(relations)));
    q.t = static_cast<EntityId>(rng->UniformInt(static_cast<uint64_t>(entities)));
    q.k = q.kind == QueryKind::kTopKTails ? kTopK : 0;
    return q;
  };
}

/// Closed loop over one TCP connection until `stop`. Every
/// kOracleEvery-th request pins the current snapshot before it is sent
/// and, when the answer comes from that step, is checked in flight.
void TcpLoop(TcpClient* client, int id, uint64_t seed, const QueryGen& gen,
             const std::atomic<bool>* stop, const SnapshotPublisher& publisher,
             Tracer* tracer, ClientLog* log) {
  Rng rng(seed);
  std::string response;
  for (int64_t i = 0; !stop->load(std::memory_order_relaxed); ++i) {
    const Query q = gen(&rng);
    const std::string line = RequestLine(q);
    if (log->lines.size() < 4096) log->lines.push_back(line);
    std::shared_ptr<const EmbeddingSnapshot> pinned;
    if (i % kOracleEvery == 0) pinned = publisher.Acquire();
    bool ok;
    const int64_t start = NowNs();
    {
      ScopedSpan span(tracer, "client.tcp_round_trip",
                      (static_cast<int64_t>(id) << 40) | i);
      ok = client->RoundTrip(line, &response);
    }
    const int64_t done = NowNs();
    log->latency_us.push_back(static_cast<double>(done - start) * 1e-3);
    log->done_ns.push_back(done);
    if (!ok) {
      ++log->errors;
      return;
    }
    const int64_t step = ResponseStep(response);
    if (step < 0) {
      ++log->errors;
      continue;
    }
    log->lag_steps += static_cast<double>(publisher.published_step() - step);
    ++log->lag_samples;
    if (pinned != nullptr && pinned->step() == step) {
      ++log->checked;
      if (!CheckAnswer(q, response, pinned->model()).empty()) {
        ++log->mismatches;
      }
    }
  }
}

/// The same closed loop through LocalClient on the server's engine: the
/// engine's latency without the TCP front-end.
void LocalLoop(LocalClient* client, uint64_t seed, const QueryGen& gen,
               const std::atomic<bool>* stop, Tracer* tracer, ClientLog* log) {
  Rng rng(seed);
  for (int64_t i = 0; !stop->load(std::memory_order_relaxed); ++i) {
    const Query q = gen(&rng);
    QueryResult result;
    const int64_t start = NowNs();
    {
      ScopedSpan span(tracer, "engine.local_call", i);
      result = client->Call(q);
    }
    log->latency_us.push_back(static_cast<double>(NowNs() - start) * 1e-3);
    if (!result.status.ok()) ++log->errors;
    if (log->results.size() < 2048) {
      result.snapshot.reset();  // Do not keep old snapshots alive.
      log->results.push_back(std::move(result));
    }
  }
}

struct Merged {
  int64_t samples() const { return static_cast<int64_t>(latency_us.size()); }

  std::vector<double> latency_us;
  std::vector<int64_t> done_ns;
  int64_t errors = 0;
  int64_t checked = 0;
  int64_t mismatches = 0;
  double lag_steps = 0.0;
  int64_t lag_samples = 0;
};

Merged Merge(const std::vector<ClientLog>& logs) {
  Merged m;
  for (const ClientLog& log : logs) {
    m.latency_us.insert(m.latency_us.end(), log.latency_us.begin(),
                        log.latency_us.end());
    m.done_ns.insert(m.done_ns.end(), log.done_ns.begin(), log.done_ns.end());
    m.errors += log.errors;
    m.checked += log.checked;
    m.mismatches += log.mismatches;
    m.lag_steps += log.lag_steps;
    m.lag_samples += log.lag_samples;
  }
  return m;
}

/// Counts a phase's requests and failures.
void AccountRequests(const Merged& m, Report* report) {
  report->Attempt(static_cast<int64_t>(m.latency_us.size()));
  if (m.errors > 0) report->Fail("serving requests answered ERR", m.errors);
  if (m.mismatches > 0) {
    report->Fail("answers differ from the snapshot they report", m.mismatches);
  }
}

/// Latency percentiles of `latency_us`; flags the run when p99 has fewer
/// than 10 samples beyond it.
LatencySummary GuardedSummary(std::vector<double> latency_us, Report* report) {
  const LatencySummary s = Summarize(std::move(latency_us));
  std::printf("%lld samples, %lld beyond p99\n",
              static_cast<long long>(s.samples),
              static_cast<long long>(s.beyond_p99));
  if (!s.p99_supported) {
    report->Flag("fewer than 10 samples beyond p99");
  }
  return s;
}

/// Reports serve_qps, serve_p50_ms and serve_p99_ms of untraced TCP load
/// that ran in `windows`, as medians over the least disturbed of them
/// (see WindowedSummary); flags the run when a kept window has fewer than
/// 10 samples beyond its p99.
void AddServeMetrics(const Merged& m, const std::vector<Window>& windows,
                     const StealMonitor& steal, Report* report) {
  const WindowedSummary s = SummarizeWindows(
      m.latency_us, m.done_ns, windows,
      [&steal](int64_t a, int64_t b) { return steal.Between(a, b); });
  std::printf(
      "%lld samples in %d windows, %d kept (median window steal %.3f s), "
      "at least %lld beyond p99 in each\n",
      static_cast<long long>(s.samples), s.windows, s.kept, s.median_steal_s,
      static_cast<long long>(s.min_beyond_p99));
  if (s.min_beyond_p99 < LatencySummary::kMinBeyond) {
    report->Flag("fewer than 10 samples beyond p99 in a window");
  }
  if (m.checked == 0) report->Flag("no answer checked");
  report->Add("serve_qps", s.rate, "1/s");
  report->Add("serve_p50_ms", s.p50 * 1e-3, "ms");
  report->Add("serve_p99_ms", s.p99 * 1e-3, "ms");
}

/// Mean microseconds per call of ParseRequestLine over `lines` and of
/// FormatResponse over `results`, on the workload's own traffic.
void MeasureProtocol(const std::vector<std::string>& lines,
                     const std::vector<QueryResult>& results, Tracer* tracer,
                     Report* report) {
  constexpr int kPasses = 20;
  int64_t parsed = 0;
  int64_t start = NowNs();
  for (int p = 0; p < kPasses; ++p) {
    ScopedSpan span(tracer, "protocol.parse");
    for (const std::string& line : lines) parsed += ParseRequestLine(line).ok();
  }
  const double parse_us =
      SecondsSince(start) * 1e6 / static_cast<double>(kPasses * lines.size());
  if (parsed != static_cast<int64_t>(kPasses * lines.size())) {
    report->Flag("a recorded request line does not parse");
  }
  size_t bytes = 0;
  start = NowNs();
  for (int p = 0; p < kPasses; ++p) {
    ScopedSpan span(tracer, "protocol.format");
    for (const QueryResult& r : results) bytes += FormatResponse(r).size();
  }
  const double format_us =
      SecondsSince(start) * 1e6 / static_cast<double>(kPasses * results.size());
  if (bytes == 0) report->Flag("no response formatted");
  report->Add("protocol.parse_us", parse_us, "us");
  report->Add("protocol.format_us", format_us, "us");
}

/// The workload's TOPK TAILS stream replayed directly through
/// KgeModel::TopKTails, and through TopKTailsBatch at the engine's
/// realised mean batch, with the tile-pruning counters.
void MeasureTopKKernels(const KgeModel& model, const QueryGen& gen,
                        uint64_t seed, double mean_batch, Tracer* tracer,
                        Report* report) {
  Rng rng(seed);
  std::vector<std::pair<EntityId, RelationId>> queries;
  while (queries.size() < 1024) {
    const Query q = gen(&rng);
    if (q.kind == QueryKind::kTopKTails) queries.emplace_back(q.h, q.r);
  }
  TopKSweepStats sweep;
  std::vector<TopKEntry> top;
  int64_t start = NowNs();
  for (const auto& [h, r] : queries) {
    ScopedSpan span(tracer, "embedding.topk");
    TopKSweepStats one;
    model.TopKTails(h, r, kTopK, &top, &one);
    sweep.tiles += one.tiles;
    sweep.pruned_tiles += one.pruned_tiles;
  }
  const double topk_us = SecondsSince(start) * 1e6 / queries.size();
  const size_t batch =
      std::max<size_t>(1, static_cast<size_t>(std::lround(mean_batch)));
  std::vector<std::vector<TopKEntry>> batched;
  size_t answered = 0;
  start = NowNs();
  for (size_t lo = 0; lo + batch <= queries.size(); lo += batch) {
    ScopedSpan span(tracer, "embedding.topk_batch");
    const std::vector<std::pair<EntityId, RelationId>> chunk(
        queries.begin() + lo, queries.begin() + lo + batch);
    model.TopKTailsBatch(chunk, kTopK, &batched);
    answered += batch;
  }
  report->Add("embedding.topk_us", topk_us, "us");
  report->Add("embedding.topk_batch_us_per_query",
              SecondsSince(start) * 1e6 / static_cast<double>(answered), "us");
  report->Add("embedding.pruned_tile_ratio",
              static_cast<double>(sweep.pruned_tiles) /
                  static_cast<double>(sweep.tiles),
              "ratio");
}

/// The top-K batcher's counters over one phase (`before` to `after`).
void AddEngineCounters(const BatchStatsSnapshot& before,
                       const BatchStatsSnapshot& after, Report* report) {
  const uint64_t requests = after.topk_requests - before.topk_requests;
  const uint64_t batches = after.topk_batches - before.topk_batches;
  report->Add("engine.mean_batch",
              batches > 0 ? static_cast<double>(requests) /
                                static_cast<double>(batches)
                          : 0.0,
              "count");
  report->Add("engine.coalesced_ratio",
              requests > 0 ? static_cast<double>(after.coalesced_requests -
                                                 before.coalesced_requests) /
                                 static_cast<double>(requests)
                           : 0.0,
              "ratio");
  report->Add("engine.rejected", static_cast<double>(after.overload_rejected),
              "count");
  report->Add("engine.shed", static_cast<double>(after.deadline_shed), "count");
}

/// The figures AddServingLayers reports, gathered by a traced run.
struct ServingLayers {
  LatencySummary tcp;     // Untraced TCP phase.
  LatencySummary engine;  // LocalClient phase.
  BatchStatsSnapshot before, after;  // Engine counters around that phase.
  std::vector<std::string> lines;    // Request lines sent over TCP.
  std::vector<QueryResult> results;  // LocalClient answers.
  double publish_us = 0.0;
  double publish_fresh_us = 0.0;
  double publish_share = 0.0;
  double publishes_per_s = 0.0;
  double answer_lag_steps = 0.0;
  ServerStatsSnapshot server;
};

/// Adds every embedding top-K, engine.*, frontend.*, protocol.*,
/// server.* and snapshot.* metric; replays the TOPK stream on `model`.
void AddServingLayers(const ServingLayers& l, const KgeModel& model,
                      const QueryGen& gen, uint64_t seed, Tracer* tracer,
                      Report* report) {
  const double mean_batch =
      static_cast<double>(l.after.topk_requests - l.before.topk_requests) /
      static_cast<double>(
          std::max<uint64_t>(1, l.after.topk_batches - l.before.topk_batches));
  MeasureTopKKernels(model, gen, seed, mean_batch, tracer, report);
  report->Add("engine.p50_us", l.engine.p50, "us");
  AddEngineCounters(l.before, l.after, report);
  report->Add("frontend.share", (l.tcp.p50 - l.engine.p50) / l.tcp.p50,
              "ratio");
  MeasureProtocol(l.lines, l.results, tracer, report);
  report->Add("server.requests", static_cast<double>(l.server.requests),
              "count");
  report->Add("server.poll_errors", static_cast<double>(l.server.poll_errors),
              "count");
  report->Add("snapshot.publish_us", l.publish_us, "us");
  report->Add("snapshot.publish_fresh_us", l.publish_fresh_us, "us");
  report->Add("snapshot.publish_share", l.publish_share, "ratio");
  report->Add("snapshot.publishes_per_s", l.publishes_per_s, "1/s");
  report->Add("snapshot.answer_lag_steps", l.answer_lag_steps, "count");
}

/// Median microseconds of 60 direct Publish() calls of `model`. With
/// `pinned`, the caller holds the snapshot each publish retires, so every
/// publish makes a fresh copy instead of reusing the retired buffer.
double MeasurePublish(SnapshotPublisher* publisher, const KgeModel& model,
                      bool pinned, Tracer* tracer) {
  std::vector<double> us;
  std::shared_ptr<const EmbeddingSnapshot> held_prev, held;
  int64_t step = publisher->published_step();
  for (int i = 0; i < 60; ++i) {
    if (pinned) {
      held_prev = held;
      held = publisher->Acquire();
    }
    const int64_t start = NowNs();
    {
      ScopedSpan span(tracer, "snapshot.publish");
      publisher->Publish(model, ++step);
    }
    us.push_back(static_cast<double>(NowNs() - start) * 1e-3);
  }
  return Median(us);
}

/// An in-process ServeServer over a publisher, and the TCP connections
/// of the closed-loop clients. Connections close before the server.
struct Front {
  std::unique_ptr<ServeServer> server;
  std::vector<std::unique_ptr<TcpClient>> clients;
};

/// Starts the server at nsc_serve's defaults (2 workers, max_batch 64,
/// 200 us linger) and connects the clients; false (with a failed
/// operation in `report`) when either fails.
bool StartFront(SnapshotPublisher* publisher, Tracer* tracer, Report* report,
                Front* front) {
  front->server =
      std::make_unique<ServeServer>(publisher, ServeServerOptions());
  ScopedSpan span(tracer, "server.start");
  const Status started = front->server->Start();
  if (!started.ok()) {
    report->Fail("cannot start the server: " + started.message());
    return false;
  }
  for (int c = 0; c < kConnections; ++c) {
    front->clients.push_back(std::make_unique<TcpClient>());
    if (!front->clients.back()->Connect(front->server->port())) {
      report->Fail("cannot connect to the server");
      return false;
    }
  }
  return true;
}

/// Shuts the server down and returns its counters (the only safe point to
/// read them).
ServerStatsSnapshot StopFront(Front* front) {
  front->clients.clear();
  front->server->Shutdown();
  return front->server->stats();
}

/// Runs `n` client threads of `body` for `seconds` of wall time.
template <typename Body>
void RunClients(double seconds, int n, std::atomic<bool>* stop, Body body) {
  stop->store(false);
  std::vector<std::thread> clients;
  for (int c = 0; c < n; ++c) clients.emplace_back(body, c);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop->store(true);
  for (std::thread& t : clients) t.join();
}

/// Request lines the TCP clients sent, for the protocol replay.
std::vector<std::string> SentLines(const std::vector<ClientLog>& logs) {
  std::vector<std::string> lines;
  for (const ClientLog& log : logs) {
    lines.insert(lines.end(), log.lines.begin(), log.lines.end());
  }
  return lines;
}

// Members are declared so that each is destroyed before what it borrows.
struct Stack {
  std::unique_ptr<Graph> graph;
  std::unique_ptr<KgeModel> model;
  std::unique_ptr<BernoulliSampler> sampler;
  std::unique_ptr<TimedSampler> timed;  // Traced runs only.
  std::unique_ptr<SnapshotPublisher> publisher;
  std::unique_ptr<Trainer> trainer;
  Front front;
  double init_s = 0.0;  // Model construction + init + first Publish.
};

std::unique_ptr<Stack> BuildStack(uint64_t seed, Tracer* tracer,
                                  Report* report) {
  auto stack = std::make_unique<Stack>();
  stack->graph = BuildGraph(kScale, DeriveSeed(seed, 1), tracer);
  const Dataset& data = stack->graph->data;
  const int64_t start = NowNs();
  stack->model = BuildTransE(data.num_entities(), data.num_relations(), 50,
                             DeriveSeed(seed, 2), tracer);
  stack->publisher = std::make_unique<SnapshotPublisher>();
  {
    ScopedSpan span(tracer, "snapshot.publish");
    stack->publisher->Publish(*stack->model, 0);
  }
  stack->init_s = SecondsSince(start);
  stack->sampler = std::make_unique<BernoulliSampler>(
      data.num_entities(), stack->graph->train_index.get());
  NegativeSampler* sampler = stack->sampler.get();
  if (tracer != nullptr) {
    // Counters only: the 1-thread trainer's sampling is timed per call.
    stack->timed =
        std::make_unique<TimedSampler>(sampler, nullptr, "sampler.sample");
    sampler = stack->timed.get();
  }
  TrainConfig config;
  config.dim = 50;
  config.learning_rate = 0.003;
  config.margin = 4.0;
  config.batch_size = 256;
  config.num_threads = 1;
  config.fused_scoring = true;
  config.seed = DeriveSeed(seed, 3);
  stack->trainer = std::make_unique<Trainer>(stack->model.get(), &data.train,
                                             sampler, config);
  stack->trainer->EnableSnapshots(stack->publisher.get());  // Every batch.
  if (!StartFront(stack->publisher.get(), tracer, report, &stack->front)) {
    return nullptr;
  }
  return stack;
}

/// Training epochs of one phase.
struct TrainLog {
  double seconds = 0.0;  // Sum of EpochStats::seconds.
  int epochs = 0;
  int non_finite = 0;
  double nzl = 0.0;  // Sum of EpochStats::nonzero_loss_ratio.
  std::vector<double> epoch_seconds;
};

void AccountEpochs(const TrainLog& log, Report* report) {
  report->Attempt(log.epochs);
  if (log.non_finite > 0) report->Fail("non-finite epoch loss", log.non_finite);
}

/// One phase of training under client load.
struct Phase {
  bool publish = true;
  double seconds = 0.0;  // Train until this much wall time has passed,
  int epochs = 0;        // or for this many epochs when seconds is 0.
  Tracer* tracer = nullptr;  // Spans around RunEpoch.
  std::function<void(int)> after_epoch;  // Called with the epoch number.
};

/// Trains on this thread as `phase` says while `n` client threads run
/// `body`; the clients stop when training does. Returns the wall time.
template <typename Body>
double TrainWhileServing(Stack* stack, const Phase& phase, int n,
                         std::atomic<bool>* stop, TrainLog* log, Body body) {
  stop->store(false);
  const int64_t start = NowNs();
  std::vector<std::thread> clients;
  for (int c = 0; c < n; ++c) clients.emplace_back(body, c);
  stack->trainer->EnableSnapshots(phase.publish ? stack->publisher.get()
                                                : nullptr);
  for (int e = 1; phase.seconds > 0 ? SecondsSince(start) < phase.seconds
                                    : e <= phase.epochs;
       ++e) {
    EpochStats stats;
    {
      ScopedSpan span(phase.tracer, "train.epoch");
      stats = stack->trainer->RunEpoch();
    }
    log->seconds += stats.seconds;
    ++log->epochs;
    log->nzl += stats.nonzero_loss_ratio;
    log->epoch_seconds.push_back(stats.seconds);
    if (!std::isfinite(stats.mean_loss)) ++log->non_finite;
    if (phase.after_epoch) phase.after_epoch(e);
  }
  stop->store(true);
  for (std::thread& t : clients) t.join();
  return SecondsSince(start);
}

/// Epochs until validation MRR reaches the target on `stack`'s graph,
/// training its own trainer without client load; 0 when kMaxProbeEpochs
/// do not reach it. At 1 thread the count depends on the graph alone.
double ProbeCrossing(Stack* stack, Tracer* tracer, double* eval_s,
                     int64_t* eval_queries) {
  const Graph& graph = *stack->graph;
  const TripleStore valid = ValidationSet(graph.data.valid);
  TargetCrossing crossing(kTargetMrr);
  const auto validate = [&](int epoch) {
    crossing.Observe(epoch, EvalMrr(*stack->model, valid, *graph.filter_index,
                                    tracer, eval_s, eval_queries));
  };
  validate(0);
  for (int e = 1; e <= kMaxProbeEpochs && !crossing.reached(); ++e) {
    stack->trainer->RunEpoch();
    validate(e);
  }
  return crossing.epochs();
}

}  // namespace

struct ServingSlices::State {
  explicit State(uint64_t seed) : seed(seed) {}
  const uint64_t seed;
  const StealMonitor steal;
  SnapshotPublisher publisher;
  Front front;
  bool started = false;
  std::vector<ClientLog> logs = std::vector<ClientLog>(kConnections);
  std::vector<Window> windows;
};

ServingSlices::ServingSlices(uint64_t seed)
    : state_(std::make_unique<State>(seed)) {}

ServingSlices::~ServingSlices() {
  if (state_->started) StopFront(&state_->front);
}

void ServingSlices::Serve(const KgeModel& model, double seconds,
                          Report* report) {
  State& s = *state_;
  const int slice = static_cast<int>(s.windows.size());
  s.publisher.Publish(model, slice);
  if (!s.started) {
    s.started = true;
    if (!StartFront(&s.publisher, nullptr, report, &s.front)) return;
  }
  if (s.front.clients.size() != kConnections) return;  // Failed to start.
  const QueryGen queries =
      MixedQueries(model.num_entities(), model.num_relations());
  std::atomic<bool> stop{false};
  const int64_t start = NowNs();
  RunClients(seconds, kConnections, &stop, [&](int c) {
    TcpLoop(s.front.clients[c].get(), c,
            DeriveSeed(s.seed, 300 + 10 * slice + c), queries, &stop,
            s.publisher, nullptr, &s.logs[c]);
  });
  s.windows.emplace_back(start, NowNs());
}

void ServingSlices::Finish(Report* report) {
  State& s = *state_;
  if (s.started) StopFront(&s.front);
  s.started = false;
  const Merged m = Merge(s.logs);
  AccountRequests(m, report);
  AddServeMetrics(m, s.windows, s.steal, report);
}

void ServeTrainedModelTraced(const KgeModel& model, double seconds,
                             uint64_t seed, double publish_share,
                             double publishes_per_s, Tracer* tracer,
                             Report* report) {
  SnapshotPublisher publisher;
  publisher.Publish(model, 0);
  Front front;
  if (!StartFront(&publisher, tracer, report, &front)) return;
  const QueryGen queries =
      MixedQueries(model.num_entities(), model.num_relations());
  std::atomic<bool> stop{false};
  std::vector<ClientLog> logs(kConnections);
  const auto tcp = [&](int c) {
    TcpLoop(front.clients[c].get(), c, DeriveSeed(seed, 300 + c), queries,
            &stop, publisher, nullptr, &logs[c]);
  };

  // Traced: TCP untraced, then LocalClient on the same engine, each for
  // half the time; then the kernels, the protocol and Publish() directly.
  ServingLayers layers;
  RunClients(0.5 * seconds, kConnections, &stop, tcp);
  Merged m = Merge(logs);
  AccountRequests(m, report);
  layers.tcp = GuardedSummary(m.latency_us, report);
  layers.answer_lag_steps =
      m.lag_steps / static_cast<double>(std::max<int64_t>(1, m.lag_samples));
  layers.lines = SentLines(logs);

  LocalClient local(front.server->engine());
  logs.assign(kConnections, ClientLog());
  layers.before = front.server->engine()->batch_stats();
  RunClients(0.5 * seconds, kConnections, &stop, [&](int c) {
    LocalLoop(&local, DeriveSeed(seed, 300 + c), queries, &stop, tracer,
              &logs[c]);
  });
  layers.after = front.server->engine()->batch_stats();
  m = Merge(logs);
  AccountRequests(m, report);
  layers.engine = GuardedSummary(m.latency_us, report);
  layers.results = logs[0].results;
  layers.server = StopFront(&front);
  layers.publish_us = MeasurePublish(&publisher, model, false, tracer);
  layers.publish_fresh_us = MeasurePublish(&publisher, model, true, tracer);
  layers.publish_share = publish_share;
  layers.publishes_per_s = publishes_per_s;
  AddServingLayers(layers, model, queries, DeriveSeed(seed, 300), tracer,
                   report);
}

void RunServeMixed(const RunOptions& options, Report* report) {
  Tracer tracer;
  Tracer* t = options.trace ? &tracer : nullptr;
  // The set-ups before the last draw their own graphs; each is trained
  // to the target before it is torn down. The last one is the run's.
  std::vector<double> setups, inits, crossings;
  double eval_s = 0.0;
  int64_t eval_queries = 0;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < kSetups; ++i) {
    if (stack != nullptr) {
      crossings.push_back(
          ProbeCrossing(stack.get(), t, &eval_s, &eval_queries));
      StopFront(&stack->front);
    }
    stack.reset();
    const int64_t start = NowNs();
    stack = BuildStack(
        i + 1 < kSetups ? DeriveSeed(options.seed, 100 + i) : options.seed, t,
        report);
    if (stack == nullptr) return;
    setups.push_back(SecondsSince(start));
    inits.push_back(stack->init_s);
  }
  const Graph& graph = *stack->graph;
  const KgeModel& model = *stack->model;
  const TripleStore valid = ValidationSet(graph.data.valid);
  const QueryGen queries = MixedQueries(graph.data.num_entities(),
                                        graph.data.num_relations());
  std::atomic<bool> stop{false};
  std::vector<ClientLog> logs;
  const auto tcp_body = [&](Tracer* phase_tracer) {
    logs.assign(kConnections, ClientLog());
    return [&, phase_tracer](int c) {
      TcpLoop(stack->front.clients[c].get(), c,
              DeriveSeed(options.seed, 200 + c), queries, &stop,
              *stack->publisher, phase_tracer, &logs[c]);
    };
  };
  // Validation after each epoch until the target is reached.
  TargetCrossing crossing(kTargetMrr);
  const auto validate = [&](int epoch) {
    if (crossing.reached()) return;
    crossing.Observe(epoch, EvalMrr(model, valid, *graph.filter_index, t,
                                    &eval_s, &eval_queries));
  };
  validate(0);

  if (!options.trace) {
    TrainLog train;
    Phase phase;
    phase.epochs = std::max(
        1, static_cast<int>(std::lround(options.seconds / kEpochS)));
    phase.after_epoch = validate;
    const StealMonitor steal;
    const int64_t start = NowNs();
    TrainWhileServing(stack.get(), phase, kConnections, &stop, &train,
                      tcp_body(nullptr));
    const int64_t end = NowNs();
    const Merged m = Merge(logs);
    StopFront(&stack->front);
    AccountEpochs(train, report);
    AccountRequests(m, report);
    crossings.push_back(crossing.epochs());
    report->Attempt(kSetups + 1);  // The crossings and the test MRR.
    for (const double epochs : crossings) {
      if (epochs == 0.0) report->Fail("validation MRR never reached the target");
    }
    const double test_mrr = EvalMrr(model, graph.data.test, *graph.filter_index,
                                    nullptr, &eval_s, &eval_queries);
    if (!(test_mrr >= kMinTestMrr)) {
      report->Fail("test MRR " + std::to_string(test_mrr) +
                   " below the quality floor");
    }
    // Every epoch does the same work, so the median crossing over the
    // set-ups' graphs is priced at the median epoch of the run.
    const double epoch_s = Median(train.epoch_seconds);
    std::printf("%d epochs, %lld answers checked\n", train.epochs,
                static_cast<long long>(m.checked));
    report->Add("setup_s", Median(setups), "s");
    report->Add("peak_rss_mb", PeakRssMb(), "MB");
    report->Add("train_triples_per_s",
                static_cast<double>(graph.data.train.size()) / epoch_s, "1/s");
    report->Add("time_to_target_s",
                Median(crossings) * epoch_s, "s");
    report->Add("test_mrr", test_mrr, "ratio");
    AddServeMetrics(m, EqualWindows(start, end, m.samples()), steal, report);
    return;
  }

  // Traced run, training throughout, four quarters: (D) no publishing +
  // TCP untraced, with the validation epochs; (A) publishing + TCP
  // untraced; (B) publishing + TCP traced; (C) publishing + LocalClient
  // on the same engine. Then the kernels, the protocol and Publish()
  // directly, on the trained model.
  const double phase_s = 0.25 * options.seconds;
  TrainLog train_a, train_b, train_c, train_d;
  Phase d;
  d.publish = false;
  d.seconds = phase_s;
  d.after_epoch = validate;
  TrainWhileServing(stack.get(), d, kConnections, &stop, &train_d,
                    tcp_body(nullptr));
  AccountRequests(Merge(logs), report);
  crossings.push_back(crossing.epochs());
  report->Attempt(kSetups);  // The validation targets.
  for (const double epochs : crossings) {
    if (epochs == 0.0) report->Fail("validation MRR never reached the target");
  }

  ServingLayers layers;
  Phase a;
  a.seconds = phase_s;
  const int64_t step_a = stack->publisher->published_step();
  const double wall_a = TrainWhileServing(stack.get(), a, kConnections, &stop,
                                          &train_a, tcp_body(nullptr));
  const int64_t publishes_a = stack->publisher->published_step() - step_a;
  Merged m = Merge(logs);
  AccountRequests(m, report);
  layers.tcp = GuardedSummary(m.latency_us, report);
  const double untraced_qps = static_cast<double>(layers.tcp.samples) / wall_a;
  layers.answer_lag_steps =
      m.lag_steps / static_cast<double>(std::max<int64_t>(1, m.lag_samples));
  layers.lines = SentLines(logs);

  Phase b = a;
  b.tracer = &tracer;
  const double wall_b = TrainWhileServing(stack.get(), b, kConnections, &stop,
                                          &train_b, tcp_body(&tracer));
  m = Merge(logs);
  AccountRequests(m, report);
  const double traced_qps = static_cast<double>(m.latency_us.size()) / wall_b;

  LocalClient local(stack->front.server->engine());
  logs.assign(kConnections, ClientLog());
  layers.before = stack->front.server->engine()->batch_stats();
  TrainWhileServing(stack.get(), b, kConnections, &stop, &train_c,
                    [&](int c) {
                      LocalLoop(&local, DeriveSeed(options.seed, 200 + c),
                                queries, &stop, &tracer, &logs[c]);
                    });
  layers.after = stack->front.server->engine()->batch_stats();
  m = Merge(logs);
  AccountRequests(m, report);
  layers.engine = GuardedSummary(m.latency_us, report);
  layers.results = logs[0].results;
  layers.server = StopFront(&stack->front);

  TrainingLayers training;
  for (const TrainLog* log : {&train_d, &train_a, &train_b, &train_c}) {
    AccountEpochs(*log, report);
    training.epoch_s += log->seconds;
    training.epochs += log->epochs;
    training.nzl += log->nzl;
  }
  training.nzl /= training.epochs;
  training.sample_s = stack->timed->busy_seconds();
  training.sampled = static_cast<double>(stack->timed->sampled());
  training.epochs_to_target = crossing.epoch();
  training.eval_s = eval_s;
  training.eval_queries = static_cast<double>(eval_queries);
  const NSCachingConfig nscaching;
  training.refresh_floor_us =
      MeasureRefreshFloor(model, graph.data.train, nscaching.n1 + nscaching.n2,
                          DeriveSeed(options.seed, 4), &tracer);

  layers.publish_us = MeasurePublish(stack->publisher.get(), model, false,
                                     &tracer);
  layers.publish_fresh_us = MeasurePublish(stack->publisher.get(), model, true,
                                           &tracer);
  layers.publish_share =
      1.0 - Median(train_d.epoch_seconds) / Median(train_a.epoch_seconds);
  layers.publishes_per_s = static_cast<double>(publishes_a) / wall_a;

  report->Add("kg.generate_s", graph.generate_s, "s");
  report->Add("kg.index_s", graph.index_s, "s");
  report->Add("embedding.init_s", Median(inits), "s");
  AddTrainingLayers(training, report);
  AddServingLayers(layers, model, queries, DeriveSeed(options.seed, 200),
                   &tracer, report);
  report->Add("trace.overhead_share", 1.0 - traced_qps / untraced_qps, "ratio");
  if (!options.trace_out.empty() && !tracer.WriteChromeTrace(options.trace_out)) {
    report->Flag("cannot write " + options.trace_out);
  }
}

}  // namespace perfbench
}  // namespace nsc
