#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <utility>

namespace nsc {
namespace perfbench {
namespace {

int32_t ThisThreadNumber() {
  static std::atomic<int32_t> next{0};
  thread_local const int32_t number = next.fetch_add(1);
  return number;
}

// Spans this thread has open, innermost last.
thread_local std::vector<int32_t> open_spans;

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<double> SelfSeconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && s.end_ns >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns < 0) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = s.start_ns;  // Everything before cursor is counted.
    for (const auto& [lo_raw, hi_raw] : kids) {
      const int64_t lo = std::max(lo_raw, cursor);
      const int64_t hi = std::min(hi_raw, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[i] = static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

std::map<std::string, SpanTotals> Summarize(const std::vector<Span>& spans) {
  const std::vector<double> self = SelfSeconds(spans);
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns < 0) continue;
    SpanTotals& t = totals[s.name];
    ++t.count;
    t.total_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    t.self_s += self[i];
  }
  return totals;
}

int32_t Tracer::Begin(const char* name, int64_t request) {
  Span span;
  span.name = name;
  span.parent = open_spans.empty() ? -1 : open_spans.back();
  span.thread = ThisThreadNumber();
  span.request = request;
  int32_t id = -1;
  {
    MutexLock lock(&mu_);
    if (spans_.size() >= max_spans_) {
      ++dropped_;
      return -1;
    }
    id = static_cast<int32_t>(spans_.size());
    span.start_ns = NowNs();
    spans_.push_back(span);
  }
  open_spans.push_back(id);
  return id;
}

void Tracer::End(int32_t id) {
  if (id < 0) return;
  const int64_t now = NowNs();
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
  MutexLock lock(&mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

std::vector<Span> Tracer::spans() const {
  MutexLock lock(&mu_);
  return spans_;
}

int64_t Tracer::dropped() const {
  MutexLock lock(&mu_);
  return dropped_;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = all.empty() ? 0 : all.front().start_ns;
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    if (s.end_ns < 0) continue;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"request\":%lld}}",
                 first ? "" : ",\n", s.name, s.thread,
                 static_cast<double>(s.start_ns - origin) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                 s.parent, static_cast<long long>(s.request));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
}  // namespace nsc
