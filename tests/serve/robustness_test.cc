// The serving acceptance contract under injected faults: with fault
// points armed, a client observes ONLY bit-identical-correct answers or
// explicit errors ("ERR overloaded ...", "ERR deadline ...") — never a
// hang, a crash, or a silently wrong/partial response. Also pins the
// robustness wire-protocol extensions (DEADLINE prefix, stale=1, INFO
// checkpoint extras), the publisher's retry/give-up counters, and the
// TCP front-end's idle-connection reaper.
#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "embedding/checkpoint_set.h"
#include "embedding/scoring_function.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "util/fault.h"
#include "util/rng.h"

namespace nsc {
namespace {

constexpr int32_t kEntities = 48;
constexpr int32_t kRelations = 4;

KgeModel MakeModel() {
  KgeModel model(kEntities, kRelations, 8, MakeScoringFunction("transe"));
  Rng rng(77);
  model.InitXavier(&rng);
  return model;
}

/// Fresh empty scratch directory under the test tmpdir.
std::string ScratchDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/robust_" + name;
  DIR* existing = ::opendir(dir.c_str());
  if (existing != nullptr) {
    for (const dirent* e = ::readdir(existing); e != nullptr;
         e = ::readdir(existing)) {
      const std::string entry = e->d_name;
      if (entry != "." && entry != "..") {
        std::remove((dir + "/" + entry).c_str());
      }
    }
    ::closedir(existing);
  } else {
    ::mkdir(dir.c_str(), 0777);
  }
  return dir;
}

/// Submits one query and blocks for its result.
QueryResult SubmitAndWait(QueryEngine* engine, const Query& query) {
  std::atomic<bool> ready{false};
  QueryResult out;
  engine->Submit(query, [&](QueryResult result) {
    out = std::move(result);
    ready.store(true, std::memory_order_release);
  });
  while (!ready.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return out;
}

/// Minimal blocking loopback client (mirrors server_test.cc).
class TestClient {
 public:
  explicit TestClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }

  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  bool Send(const std::string& bytes) {
    return ::write(fd_, bytes.data(), bytes.size()) ==
           static_cast<ssize_t>(bytes.size());
  }

  std::vector<std::string> Lines(std::size_t n) {
    while (CountLines() < n) {
      char chunk[4096];
      const ssize_t got = ::read(fd_, chunk, sizeof(chunk));
      if (got <= 0) return {};
      buffer_.append(chunk, static_cast<std::size_t>(got));
    }
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t newline = buffer_.find('\n');
      lines.push_back(buffer_.substr(0, newline));
      buffer_.erase(0, newline + 1);
    }
    return lines;
  }

  bool ReadEof() {
    char chunk[256];
    for (;;) {
      const ssize_t got = ::read(fd_, chunk, sizeof(chunk));
      if (got == 0) return true;
      if (got < 0) return false;
    }
  }

 private:
  std::size_t CountLines() const {
    std::size_t count = 0;
    for (const char c : buffer_) {
      if (c == '\n') ++count;
    }
    return count;
  }

  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

// ---------------------------------------------------------------------------
// Wire-protocol extensions (no faults needed).

TEST(RobustProtocolTest, DeadlinePrefixParses) {
  auto query = ParseRequestLine("DEADLINE 5000 SCORE 1 0 2");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(query.value().kind, QueryKind::kScore);
  EXPECT_EQ(query.value().h, 1);
  EXPECT_EQ(query.value().r, 0);
  EXPECT_EQ(query.value().t, 2);
  EXPECT_EQ(query.value().deadline_us, 5000);
}

TEST(RobustProtocolTest, DeadlinePrefixComposesWithEveryKind) {
  auto topk = ParseRequestLine("DEADLINE 250 TOPK TAILS 3 1 5");
  ASSERT_TRUE(topk.ok());
  EXPECT_EQ(topk.value().kind, QueryKind::kTopKTails);
  EXPECT_EQ(topk.value().deadline_us, 250);
  auto rank = ParseRequestLine("DEADLINE 99 RANK HEAD 1 0 2");
  ASSERT_TRUE(rank.ok());
  EXPECT_EQ(rank.value().deadline_us, 99);
}

TEST(RobustProtocolTest, MalformedDeadlineRejected) {
  EXPECT_FALSE(ParseRequestLine("DEADLINE 0 SCORE 1 0 2").ok());
  EXPECT_FALSE(ParseRequestLine("DEADLINE -5 SCORE 1 0 2").ok());
  EXPECT_FALSE(ParseRequestLine("DEADLINE abc SCORE 1 0 2").ok());
  EXPECT_FALSE(ParseRequestLine("DEADLINE 5000").ok());
  EXPECT_FALSE(ParseRequestLine("DEADLINE").ok());
}

TEST(RobustProtocolTest, PlainRequestHasNoDeadline) {
  auto query = ParseRequestLine("SCORE 1 0 2");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query.value().deadline_us, 0);
}

TEST(RobustProtocolTest, StaleFlagAppendedToResponses) {
  QueryResult result;
  result.status = Status::OK();
  result.kind = QueryKind::kScore;
  result.step = 7;
  result.score = 1.5;
  EXPECT_EQ(FormatResponse(result).find(" stale=1"), std::string::npos);
  result.stale = true;
  const std::string line = FormatResponse(result);
  ASSERT_GE(line.size(), 9u);
  EXPECT_EQ(line.substr(line.size() - 9), " stale=1\n");
}

TEST(RobustProtocolTest, InfoExtrasAppendedOnlyWhenConfigured) {
  const KgeModel model = MakeModel();
  const EmbeddingSnapshot snapshot(model, 12);
  // Default extras: the bare protocol-v1 line, byte for byte.
  EXPECT_EQ(FormatInfoResponse(&snapshot), "INFO 12 48 4 8 transe\n");

  InfoExtras extras;
  extras.show_checkpoint = true;
  extras.ckpt_ok = 3;
  extras.ckpt_fail = 1;
  extras.ckpt_retries = 2;
  extras.ckpt_step = 10;
  extras.stale = true;
  EXPECT_EQ(FormatInfoResponse(&snapshot, extras),
            "INFO 12 48 4 8 transe ckpt_ok=3 ckpt_fail=1 ckpt_retries=2 "
            "ckpt_step=10 stale=1\n");
}

// ---------------------------------------------------------------------------
// Staleness without faults: age-based.

TEST(RobustnessTest, StaleAfterUsAgesThePublishedSnapshot) {
  SnapshotPublisherOptions options;
  options.stale_after_us = 1000;  // 1ms.
  SnapshotPublisher publisher(options);
  const KgeModel model = MakeModel();
  publisher.Publish(model, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(publisher.IsStale());
  // A fresh publish resets the clock.
  publisher.Publish(model, 2);
  EXPECT_FALSE(publisher.IsStale());
}

TEST(RobustnessTest, StalenessDisabledByDefault) {
  SnapshotPublisher publisher;
  const KgeModel model = MakeModel();
  publisher.Publish(model, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(publisher.IsStale());
}

// ---------------------------------------------------------------------------
// Idle-connection reaping (no faults needed).

TEST(RobustnessTest, IdleConnectionsAreReaped) {
  const KgeModel model = MakeModel();
  SnapshotPublisher publisher;
  publisher.Publish(model, 12);
  ServeServerOptions options;
  options.port = 0;
  options.idle_timeout_ms = 100;
  ServeServer server(&publisher, options);
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("INFO\n"));
  ASSERT_EQ(client.Lines(1).size(), 1u);
  // Now go silent; the server must close us, and count it.
  EXPECT_TRUE(client.ReadEof());
  const ServerStatsSnapshot stats = server.stats();
  EXPECT_GE(stats.idle_closed, 1u);
  EXPECT_GE(stats.closed, stats.idle_closed);
  server.Shutdown();
}

TEST(RobustnessTest, ActiveConnectionOutlivesIdleTimeout) {
  const KgeModel model = MakeModel();
  SnapshotPublisher publisher;
  publisher.Publish(model, 12);
  ServeServerOptions options;
  options.port = 0;
  options.idle_timeout_ms = 150;
  ServeServer server(&publisher, options);
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  // Traffic at half the timeout keeps the connection alive well past
  // several timeout windows.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(client.Send("SCORE 1 0 2\n")) << i;
    const std::vector<std::string> lines = client.Lines(1);
    ASSERT_EQ(lines.size(), 1u) << i;
    EXPECT_TRUE(StartsWith(lines[0], "SCORE ")) << lines[0];
    std::this_thread::sleep_for(std::chrono::milliseconds(75));
  }
  EXPECT_EQ(server.stats().idle_closed, 0u);
  server.Shutdown();
}

#if NSC_FAULTS

// ---------------------------------------------------------------------------
// Engine-level fault injection.

TEST(RobustnessTest, OverloadFaultRejectsWithUnavailable) {
  const KgeModel model = MakeModel();
  SnapshotPublisher publisher;
  publisher.Publish(model, 1);
  QueryEngine engine(&publisher);

  FaultSpec spec;
  spec.action = FaultAction::kError;
  ScopedFault fault("serve.overload", spec);

  Query query;
  query.kind = QueryKind::kScore;
  query.h = 1;
  query.t = 2;
  const QueryResult result = SubmitAndWait(&engine, query);
  EXPECT_EQ(result.status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(result.status.message().find("overloaded") !=
              std::string::npos)
      << result.status.ToString();
  EXPECT_GE(engine.batch_stats().overload_rejected, 1u);
}

TEST(RobustnessTest, QueueBoundRejectsWhenFull) {
  const KgeModel model = MakeModel();
  SnapshotPublisher publisher;
  publisher.Publish(model, 1);
  QueryEngineOptions options;
  options.num_workers = 1;
  options.max_queue = 1;
  QueryEngine engine(&publisher, options);

  // Pin the single worker in a 100ms injected stall so queue depth is
  // fully under test control.
  FaultSpec slow;
  slow.action = FaultAction::kLatency;
  slow.latency_us = 100000;
  ScopedFault fault("serve.execute", slow);

  Query query;
  query.kind = QueryKind::kScore;
  query.h = 1;
  query.t = 2;

  std::atomic<int> completed{0};
  std::atomic<int> rejected{0};
  auto count = [&](QueryResult result) {
    if (result.status.code() == StatusCode::kUnavailable) {
      ++rejected;
    } else {
      EXPECT_TRUE(result.status.ok()) << result.status.ToString();
      ++completed;
    }
  };
  engine.Submit(query, count);  // Taken by the worker (stalled 100ms).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  engine.Submit(query, count);  // Queued: depth 1 == max_queue.
  engine.Submit(query, count);  // Over the bound: rejected NOW.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(rejected.load(), 1);
  // Draining destructor answers the accepted two.
  while (completed.load() + rejected.load() < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(completed.load(), 2);
  EXPECT_EQ(engine.batch_stats().overload_rejected, 1u);
}

TEST(RobustnessTest, ExpiredQueuedRequestsAreShedNotExecuted) {
  const KgeModel model = MakeModel();
  SnapshotPublisher publisher;
  publisher.Publish(model, 1);
  QueryEngineOptions options;
  options.num_workers = 1;
  QueryEngine engine(&publisher, options);

  FaultSpec slow;
  slow.action = FaultAction::kLatency;
  slow.latency_us = 30000;
  ScopedFault fault("serve.execute", slow);

  Query blocker;
  blocker.kind = QueryKind::kScore;
  blocker.h = 1;
  blocker.t = 2;
  std::atomic<bool> blocker_done{false};
  engine.Submit(blocker, [&](QueryResult result) {
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    blocker_done = true;
  });

  // Queued behind a 30ms stall with a 1ms budget: must be shed.
  Query doomed = blocker;
  doomed.deadline_us = 1000;
  const QueryResult shed = SubmitAndWait(&engine, doomed);
  EXPECT_EQ(shed.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(shed.status.message().find("deadline") != std::string::npos)
      << shed.status.ToString();
  EXPECT_GE(engine.batch_stats().deadline_shed, 1u);
  while (!blocker_done.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

TEST(RobustnessTest, TopKBatchMembersShedIndividually) {
  const KgeModel model = MakeModel();
  SnapshotPublisher publisher;
  publisher.Publish(model, 1);
  QueryEngineOptions options;
  options.num_workers = 1;
  QueryEngine engine(&publisher, options);

  FaultSpec slow;
  slow.action = FaultAction::kLatency;
  slow.latency_us = 30000;
  ScopedFault fault("serve.execute", slow);

  Query topk;
  topk.kind = QueryKind::kTopKTails;
  topk.h = 1;
  topk.r = 2;
  topk.k = 4;
  std::atomic<bool> first_done{false};
  engine.Submit(topk, [&](QueryResult result) {
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    first_done = true;
  });
  Query doomed = topk;
  doomed.deadline_us = 500;
  const QueryResult shed = SubmitAndWait(&engine, doomed);
  EXPECT_EQ(shed.status.code(), StatusCode::kDeadlineExceeded);
  while (!first_done.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

TEST(RobustnessTest, GenerousDeadlineStillAnswersExactly) {
  const KgeModel model = MakeModel();
  SnapshotPublisher publisher;
  publisher.Publish(model, 1);
  QueryEngine engine(&publisher);

  Query query;
  query.kind = QueryKind::kScore;
  query.h = 3;
  query.r = 1;
  query.t = 7;
  query.deadline_us = 10000000;  // 10s: never expires in a test run.
  const QueryResult result = SubmitAndWait(&engine, query);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  ASSERT_NE(result.snapshot, nullptr);
  EXPECT_EQ(result.score, result.snapshot->model().Score(3, 1, 7));
}

TEST(RobustnessTest, StallFaultFlagsAnswersStale) {
  const KgeModel model = MakeModel();
  SnapshotPublisher publisher;
  publisher.Publish(model, 1);
  QueryEngine engine(&publisher);

  Query query;
  query.kind = QueryKind::kScore;
  query.h = 1;
  query.t = 2;
  {
    FaultSpec spec;
    spec.action = FaultAction::kError;
    ScopedFault fault("publisher.stall", spec);
    EXPECT_TRUE(publisher.IsStale());
    const QueryResult result = SubmitAndWait(&engine, query);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_TRUE(result.stale);
    // Stale degrades freshness, NEVER correctness: the answer is still
    // exact against its pinned snapshot.
    ASSERT_NE(result.snapshot, nullptr);
    EXPECT_EQ(result.score, result.snapshot->model().Score(1, 0, 2));
  }
  // Disarmed: back to fresh.
  EXPECT_FALSE(publisher.IsStale());
  EXPECT_FALSE(SubmitAndWait(&engine, query).stale);
}

// The acceptance property: under randomized overload + latency faults,
// EVERY submitted request resolves (no hangs), and every resolution is
// either a bit-identical-correct answer or an explicit
// kUnavailable/kDeadlineExceeded. Nothing else is acceptable.
TEST(RobustnessTest, EveryAnswerExactOrExplicitlyRejected) {
  const KgeModel model = MakeModel();
  SnapshotPublisher publisher;
  publisher.Publish(model, 1);
  QueryEngineOptions options;
  options.num_workers = 2;
  options.max_queue = 8;
  QueryEngine engine(&publisher, options);

  FaultSpec jitter;
  jitter.action = FaultAction::kLatency;
  jitter.trigger = FaultTrigger::kProbability;
  jitter.probability = 0.5;
  jitter.latency_us = 2000;
  jitter.seed = 42;
  ScopedFault latency_fault("serve.execute", jitter);
  FaultSpec refuse;
  refuse.action = FaultAction::kError;
  refuse.trigger = FaultTrigger::kProbability;
  refuse.probability = 0.2;
  refuse.seed = 43;
  ScopedFault overload_fault("serve.overload", refuse);

  // 200 requests in 10 bursts of 20. A burst overruns max_queue, and its
  // queued requests share one 4 ms budget with the injected 2 ms stalls,
  // so bursts end in answers, queue-bound and fault rejections, and
  // deadline sheds. The next burst starts once the last one has resolved,
  // i.e. right after an engine worker ran: one burst whose workers were
  // starved past the budget by a loaded host sheds all it queued, but it
  // cannot take the other nine bursts' answers with it.
  constexpr int kBursts = 10;
  constexpr int kBurstSize = 20;
  constexpr int kRequests = kBursts * kBurstSize;
  std::atomic<int> resolved{0};
  std::atomic<int> ok{0};
  std::atomic<int> explicit_errors{0};
  std::atomic<int> wrong{0};
  const auto give_up_at =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (int i = 0; i < kRequests; ++i) {
    if (i % kBurstSize == 0) {
      while (resolved.load() < i &&
             std::chrono::steady_clock::now() < give_up_at) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    Query query;
    query.kind = QueryKind::kScore;
    query.h = i % kEntities;
    query.r = i % kRelations;
    query.t = (i * 7 + 3) % kEntities;
    query.deadline_us = 4000;
    engine.Submit(query, [&, query](QueryResult result) {
      if (result.status.ok()) {
        const double expected = result.snapshot->model().Score(
            query.h, query.r, query.t);
        if (result.score == expected) {
          ++ok;
        } else {
          ++wrong;
        }
      } else if (result.status.code() == StatusCode::kUnavailable ||
                 result.status.code() == StatusCode::kDeadlineExceeded) {
        ++explicit_errors;
      } else {
        ++wrong;
      }
      ++resolved;
    });
  }
  while (resolved.load() < kRequests &&
         std::chrono::steady_clock::now() < give_up_at) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(resolved.load(), kRequests) << "requests hung";
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(ok.load(), 0);
  EXPECT_GT(explicit_errors.load(), 0);
  EXPECT_EQ(ok.load() + explicit_errors.load(), kRequests);
}

// ---------------------------------------------------------------------------
// Publisher checkpoint-writer retries, give-ups and counters.

TEST(RobustnessTest, WriterGivesUpAfterExhaustedRetriesThenRecovers) {
  const std::string dir = ScratchDir("giveup");
  SnapshotPublisherOptions options;
  options.checkpoint_dir = dir;
  options.checkpoint_backoff.max_attempts = 3;
  options.checkpoint_backoff.initial_backoff_us = 200;
  options.checkpoint_backoff.jitter = 0.0;
  SnapshotPublisher publisher(options);
  const KgeModel model = MakeModel();

  {
    FaultSpec spec;
    spec.action = FaultAction::kError;
    ScopedFault fault("ckpt.open", spec);
    publisher.Publish(model, 5);
    ASSERT_TRUE(publisher.WaitForCheckpointOutcomes(1, 10000000));
    const CheckpointWriterStats stats = publisher.checkpoint_stats();
    EXPECT_EQ(stats.attempts, 3);
    EXPECT_EQ(stats.failures, 3);
    EXPECT_EQ(stats.retries, 2);
    EXPECT_EQ(stats.give_ups, 1);
    EXPECT_EQ(stats.successes, 0);
    EXPECT_EQ(stats.last_success_step, -1);
    EXPECT_EQ(stats.last_status.code(), StatusCode::kIOError);
    EXPECT_EQ(publisher.last_checkpoint_step(), -1);
  }

  // Fault disarmed: the NEXT publish checkpoints cleanly — a give-up
  // never wedges the writer.
  publisher.Publish(model, 6);
  ASSERT_TRUE(publisher.WaitForCheckpoint(6, 10000000));
  const CheckpointWriterStats stats = publisher.checkpoint_stats();
  EXPECT_EQ(stats.successes, 1);
  EXPECT_EQ(stats.last_success_step, 6);
  EXPECT_TRUE(stats.last_status.ok());
  EXPECT_EQ(stats.give_ups, 1);  // History preserved.

  auto recovered = CheckpointSet(dir).LoadLatestValid();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value().step, 6);
}

TEST(RobustnessTest, TornWriteIsRetriedToSuccess) {
  const std::string dir = ScratchDir("torn_retry");
  SnapshotPublisherOptions options;
  options.checkpoint_dir = dir;
  options.checkpoint_backoff.max_attempts = 4;
  options.checkpoint_backoff.initial_backoff_us = 200;
  options.checkpoint_backoff.jitter = 0.0;
  SnapshotPublisher publisher(options);
  const KgeModel model = MakeModel();

  // Tear the FIRST write attempt mid-file; kNthHit fires once, so the
  // retry runs clean. The retry overwrites the torn file.
  FaultSpec spec;
  spec.action = FaultAction::kTruncate;
  spec.trigger = FaultTrigger::kNthHit;
  spec.n = 6;
  spec.truncate_at = 10;
  ScopedFault fault("ckpt.write", spec);

  publisher.Publish(model, 9);
  ASSERT_TRUE(publisher.WaitForCheckpoint(9, 10000000));
  const CheckpointWriterStats stats = publisher.checkpoint_stats();
  EXPECT_EQ(stats.successes, 1);
  EXPECT_EQ(stats.failures, 1);
  EXPECT_EQ(stats.retries, 1);
  EXPECT_EQ(stats.give_ups, 0);
  EXPECT_EQ(stats.last_success_step, 9);

  auto recovered = CheckpointSet(dir).LoadLatestValid();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value().step, 9);
  EXPECT_EQ(recovered.value().model.entity_table().LogicalCopy(),
            model.entity_table().LogicalCopy());
}

// ---------------------------------------------------------------------------
// End to end over TCP: the wire-level acceptance check.

TEST(RobustnessTest, TcpClientsSeeExactAnswersOrExplicitErrors) {
  const KgeModel model = MakeModel();
  SnapshotPublisher publisher;
  publisher.Publish(model, 12);
  ServeServerOptions options;
  options.port = 0;
  options.engine.num_workers = 1;
  options.engine.max_queue = 2;
  ServeServer server(&publisher, options);
  ASSERT_TRUE(server.Start().ok());

  FaultSpec slow;
  slow.action = FaultAction::kLatency;
  slow.latency_us = 5000;
  ScopedFault fault("serve.execute", slow);

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  constexpr int kRequests = 10;
  std::string pipelined;
  for (int i = 0; i < kRequests; ++i) {
    // Request 0 carries no deadline — it is accepted first (empty
    // queue) and therefore ALWAYS answered, however loaded the host
    // running this test is. The rest race their 8ms budgets.
    if (i > 0) pipelined += "DEADLINE 8000 ";
    pipelined += "SCORE " + std::to_string(i) + " 0 " +
                 std::to_string(i + 1) + "\n";
  }
  ASSERT_TRUE(client.Send(pipelined));
  const std::vector<std::string> lines = client.Lines(kRequests);
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kRequests));

  int exact = 0;
  int explicit_errors = 0;
  for (int i = 0; i < kRequests; ++i) {
    const std::string& line = lines[i];
    if (StartsWith(line, "SCORE ")) {
      // Responses are in request order, so line i answers request i.
      // %.17g round-trips doubles: the parsed score must be bit-exact.
      const std::size_t space = line.rfind(' ');
      const double score = std::strtod(line.c_str() + space, nullptr);
      EXPECT_EQ(score, model.Score(i, 0, i + 1)) << line;
      ++exact;
    } else {
      EXPECT_TRUE(StartsWith(line, "ERR overloaded") ||
                  StartsWith(line, "ERR deadline"))
          << line;
      ++explicit_errors;
    }
  }
  EXPECT_EQ(exact + explicit_errors, kRequests);
  EXPECT_GE(exact, 1);         // The head of the line always answers.
  EXPECT_GE(explicit_errors, 1);  // A 1-worker 5ms stall must trip some.
  server.Shutdown();
}

TEST(RobustnessTest, InfoReportsCheckpointCountersAndStaleness) {
  const std::string dir = ScratchDir("info_extras");
  const KgeModel model = MakeModel();
  SnapshotPublisherOptions pub_options;
  pub_options.checkpoint_dir = dir;
  SnapshotPublisher publisher(pub_options);
  publisher.Publish(model, 12);
  ASSERT_TRUE(publisher.WaitForCheckpoint(12, 10000000));

  ServeServerOptions options;
  options.port = 0;
  ServeServer server(&publisher, options);
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("INFO\n"));
  std::vector<std::string> lines = client.Lines(1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(StartsWith(lines[0], "INFO 12 48 4 8 transe ")) << lines[0];
  EXPECT_NE(lines[0].find("ckpt_ok=1"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("ckpt_step=12"), std::string::npos) << lines[0];
  EXPECT_EQ(lines[0].find("stale=1"), std::string::npos) << lines[0];

  {
    FaultSpec spec;
    spec.action = FaultAction::kError;
    ScopedFault stall("publisher.stall", spec);
    ASSERT_TRUE(client.Send("INFO\nSCORE 1 0 2\n"));
    lines = client.Lines(2);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_NE(lines[0].find(" stale=1"), std::string::npos) << lines[0];
    EXPECT_TRUE(StartsWith(lines[1], "SCORE ")) << lines[1];
    EXPECT_NE(lines[1].find(" stale=1"), std::string::npos) << lines[1];
  }
  server.Shutdown();
}

#endif  // NSC_FAULTS

}  // namespace
}  // namespace nsc
