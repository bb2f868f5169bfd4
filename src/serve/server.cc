#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "serve/protocol.h"
#include "util/logging.h"

namespace nsc {

namespace {

// A connection feeding us an unbounded "line" is either broken or
// hostile; bound its buffer instead of the process heap.
constexpr std::size_t kMaxInputBuffer = 1 << 20;

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

int64_t SteadyNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ServeServer::ServeServer(const SnapshotPublisher* publisher,
                         ServeServerOptions options)
    : publisher_(publisher), options_(std::move(options)) {
  CHECK(publisher != nullptr);
}

ServeServer::~ServeServer() { Shutdown(); }

Status ServeServer::Start() {
  CHECK(!started_.load()) << "Start() called twice";

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Status::IOError("socket(): out of descriptors");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError("cannot bind " + options_.host + ":" +
                           std::to_string(options_.port));
  }
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError("getsockname() failed");
  }
  port_ = ntohs(bound.sin_port);

  if (::pipe(wake_pipe_) != 0 || !SetNonBlocking(wake_pipe_[0]) ||
      !SetNonBlocking(wake_pipe_[1]) || !SetNonBlocking(listen_fd_)) {
    Shutdown();
    return Status::IOError("cannot set up the event loop descriptors");
  }

  engine_ = std::make_unique<QueryEngine>(publisher_, options_.engine);
  started_.store(true);
  loop_ = std::thread([this] { LoopThread(); });
  return Status::OK();
}

void ServeServer::Shutdown() {
  shutdown_.store(true, std::memory_order_release);
  WakeLoop();
  if (loop_.joinable()) loop_.join();
  // Engine teardown drains in-flight callbacks; Connections and the wake
  // pipe must still be alive here (see the member-order comment).
  engine_.reset();
  for (int& fd : wake_pipe_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void ServeServer::WakeLoop() {
  if (wake_pipe_[1] < 0) return;
  const char byte = 'w';
  // EAGAIN means a wakeup is already pending — exactly what we need.
  [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
}

ServerStatsSnapshot ServeServer::stats() const {
  ServerStatsSnapshot snapshot;
  snapshot.accepted = counters_.accepted.load(std::memory_order_relaxed);
  snapshot.closed = counters_.closed.load(std::memory_order_relaxed);
  snapshot.idle_closed = counters_.idle_closed.load(std::memory_order_relaxed);
  snapshot.poll_interrupts =
      counters_.poll_interrupts.load(std::memory_order_relaxed);
  snapshot.poll_errors = counters_.poll_errors.load(std::memory_order_relaxed);
  snapshot.requests = counters_.requests.load(std::memory_order_relaxed);
  snapshot.overflowed = counters_.overflowed.load(std::memory_order_relaxed);
  return snapshot;
}

void ServeServer::AcceptNew() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN (drained) or transient error: poll again.
    if (!SetNonBlocking(fd)) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    // Response lines are small; Nagle would serialize request/response
    // round trips at full RTT granularity.
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>(fd);
    conn->last_active_us = SteadyNowUs();
    connections_.emplace(fd, std::move(conn));
    counters_.accepted.fetch_add(1, std::memory_order_relaxed);
  }
}

void ServeServer::HandleLine(const std::shared_ptr<Connection>& conn,
                             const std::string& line) {
  if (line.find_first_not_of(" \t") == std::string::npos) return;
  const uint64_t seq = conn->next_seq++;
  counters_.requests.fetch_add(1, std::memory_order_relaxed);
  if (IsQuitRequest(line)) {
    QueueResponse(conn, seq, "BYE\n", /*close_after=*/true);
    return;
  }
  if (IsInfoRequest(line)) {
    const std::shared_ptr<const EmbeddingSnapshot> snap =
        publisher_->Acquire();
    InfoExtras extras;
    extras.stale = publisher_->IsStale();
    if (publisher_->checkpointing_enabled()) {
      const CheckpointWriterStats ckpt = publisher_->checkpoint_stats();
      extras.show_checkpoint = true;
      extras.ckpt_ok = ckpt.successes;
      extras.ckpt_fail = ckpt.give_ups;
      extras.ckpt_retries = ckpt.retries;
      extras.ckpt_step = ckpt.last_success_step;
    }
    QueueResponse(conn, seq, FormatInfoResponse(snap.get(), extras));
    return;
  }
  StatusOr<Query> parsed = ParseRequestLine(line);
  if (!parsed.ok()) {
    QueueResponse(conn, seq, FormatError(parsed.status().message()));
    return;
  }
  // The completion callback runs on an engine worker; it only touches the
  // shared_ptr Connection and the wake pipe, both of which outlive the
  // engine (member destruction order in server.h).
  engine_->Submit(parsed.value(), [this, conn, seq](QueryResult result) {
    QueueResponse(conn, seq, FormatResponse(result));
  });
}

bool ServeServer::ReadAndDispatch(const std::shared_ptr<Connection>& conn) {
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::read(conn->fd, buffer, sizeof(buffer));
    if (n > 0) {
      conn->last_active_us = SteadyNowUs();
      conn->in.append(buffer, static_cast<std::size_t>(n));
      if (conn->in.size() > kMaxInputBuffer) {
        counters_.overflowed.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      continue;
    }
    if (n == 0) return false;  // Peer closed.
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;
  }
  // Dispatch every complete line; the tail stays buffered until its
  // newline arrives (partial-delivery tolerance, pinned by server_test).
  std::size_t start = 0;
  for (;;) {
    const std::size_t newline = conn->in.find('\n', start);
    if (newline == std::string::npos) break;
    std::size_t end = newline;
    if (end > start && conn->in[end - 1] == '\r') --end;
    HandleLine(conn, conn->in.substr(start, end - start));
    start = newline + 1;
  }
  conn->in.erase(0, start);
  return true;
}

void ServeServer::QueueResponse(const std::shared_ptr<Connection>& conn,
                                uint64_t seq, std::string response,
                                bool close_after) {
  {
    MutexLock lock(&conn->mu);
    conn->reorder.emplace(seq,
                          std::make_pair(std::move(response), close_after));
    // Migrate every response that is now next in request order. The
    // engine's workers complete in any order; the socket sees request
    // order — the protocol's per-connection ordering promise.
    for (auto it = conn->reorder.find(conn->next_out_seq);
         it != conn->reorder.end();
         it = conn->reorder.find(++conn->next_out_seq)) {
      conn->out += it->second.first;
      if (it->second.second) conn->close_after_flush = true;
      conn->reorder.erase(it);
    }
  }
  WakeLoop();
}

bool ServeServer::FlushConnection(const std::shared_ptr<Connection>& conn) {
  std::string pending;
  bool close_after = false;
  {
    MutexLock lock(&conn->mu);
    pending.swap(conn->out);
    close_after = conn->close_after_flush;
  }
  if (pending.empty()) return !close_after;
  conn->last_active_us = SteadyNowUs();

  std::size_t written = 0;
  while (written < pending.size()) {
    const ssize_t n = ::write(conn->fd, pending.data() + written,
                              pending.size() - written);
    if (n > 0) {
      written += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    return false;  // Socket died.
  }
  if (written < pending.size()) {
    // Partial write: the remainder must precede anything a worker
    // appended while we were writing.
    MutexLock lock(&conn->mu);
    conn->out.insert(0, pending, written, pending.size() - written);
    return true;
  }
  return !close_after;
}

int ServeServer::PollTimeoutMs(int64_t now_us) const {
  if (options_.idle_timeout_ms <= 0 || connections_.empty()) return -1;
  const int64_t timeout_us = options_.idle_timeout_ms * 1000;
  int64_t nearest_us = timeout_us;
  for (const auto& entry : connections_) {
    const int64_t remaining =
        entry.second->last_active_us + timeout_us - now_us;
    if (remaining < nearest_us) nearest_us = remaining;
  }
  if (nearest_us <= 0) return 0;
  // Round UP to whole ms: rounding down would spin sub-ms wakeups while
  // a deadline is imminent but not reached.
  return static_cast<int>((nearest_us + 999) / 1000);
}

void ServeServer::ReapIdleConnections(int64_t now_us) {
  if (options_.idle_timeout_ms <= 0) return;
  const int64_t timeout_us = options_.idle_timeout_ms * 1000;
  for (auto it = connections_.begin(); it != connections_.end();) {
    const std::shared_ptr<Connection>& conn = it->second;
    bool idle = now_us - conn->last_active_us >= timeout_us;
    if (idle) {
      // Never reap a connection with responses still owed: a request
      // executing longer than the idle timeout must get its answer.
      MutexLock lock(&conn->mu);
      idle = conn->out.empty() && conn->reorder.empty() &&
             conn->next_out_seq == conn->next_seq;
    }
    if (idle) {
      // Count before close(): the peer sees EOF as soon as the fd closes
      // and may read stats() at once, so the counters must already show
      // this close.
      counters_.closed.fetch_add(1, std::memory_order_relaxed);
      counters_.idle_closed.fetch_add(1, std::memory_order_relaxed);
      ::close(conn->fd);
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void ServeServer::LoopThread() {
  std::vector<pollfd> fds;
  std::vector<std::shared_ptr<Connection>> polled;
  while (!shutdown_.load(std::memory_order_acquire)) {
    fds.clear();
    polled.clear();
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    fds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
    for (const auto& entry : connections_) {
      short events = POLLIN;
      {
        MutexLock lock(&entry.second->mu);
        if (!entry.second->out.empty() || entry.second->close_after_flush) {
          events |= POLLOUT;
        }
      }
      fds.push_back(pollfd{entry.first, events, 0});
      polled.push_back(entry.second);
    }

    const int ready =
        ::poll(fds.data(), fds.size(), PollTimeoutMs(SteadyNowUs()));
    if (ready < 0) {
      if (errno == EINTR) {
        // Interrupted by a signal: retry, counted (a server pinned at
        // 100% interrupts is diagnosable from stats()).
        counters_.poll_interrupts.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      counters_.poll_errors.fetch_add(1, std::memory_order_relaxed);
      if (errno == ENOMEM || errno == EAGAIN) {
        // Transient kernel pressure: back off briefly and retry rather
        // than tearing down every connection.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      LOG_ERROR << "serve loop poll() failed: " << std::strerror(errno)
                << "; shutting the event loop down";
      break;  // Programming error (EBADF/EFAULT/EINVAL): unrecoverable.
    }
    if ((fds[1].revents & POLLIN) != 0) {
      char drain[64];
      while (::read(wake_pipe_[0], drain, sizeof(drain)) > 0) {
      }
    }
    if (shutdown_.load(std::memory_order_acquire)) break;
    if ((fds[0].revents & POLLIN) != 0) AcceptNew();

    for (std::size_t i = 2; i < fds.size(); ++i) {
      const std::shared_ptr<Connection>& conn = polled[i - 2];
      bool alive = true;
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        alive = ReadAndDispatch(conn);
      }
      // Flush unconditionally: completions queued since the last poll may
      // not have POLLOUT armed yet, and this is also where a drained QUIT
      // connection closes.
      if (alive) alive = FlushConnection(conn);
      if (!alive) {
        counters_.closed.fetch_add(1, std::memory_order_relaxed);
        ::close(conn->fd);
        connections_.erase(conn->fd);
      }
    }
    ReapIdleConnections(SteadyNowUs());
  }
  for (const auto& entry : connections_) ::close(entry.first);
  connections_.clear();
}

}  // namespace nsc
