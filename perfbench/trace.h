// In-memory span tracing for the benchmark's traced runs.
//
// The benchmark records a span around each call it makes into a layer's
// public function (graph generation, index build, RunEpoch, a sampler
// batch, a TCP round trip, ...). A span holds a name, its start and end,
// the span that was open on the same thread when it began (its parent)
// and, for serving, the request id it belongs to. Spans stay in memory and
// are written out as Chrome trace-event JSON when the run ends
// (chrome://tracing or https://ui.perfetto.dev open it).
//
// A span's self time is its duration minus the part of its interval that
// its children cover; Summarize() aggregates both per span name.
#ifndef NSCACHING_PERFBENCH_TRACE_H_
#define NSCACHING_PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace nsc {
namespace perfbench {

/// Nanoseconds on the steady clock.
int64_t NowNs();

struct Span {
  const char* name = "";  // Static storage (a string literal).
  int64_t start_ns = 0;
  int64_t end_ns = -1;  // -1 while open.
  int32_t parent = -1;  // Index of the parent span; -1 for a root.
  int32_t thread = 0;   // Small per-process thread number.
  int64_t request = -1;  // Request id for serving spans; -1 otherwise.
};

/// Totals of every closed span of one name.
struct SpanTotals {
  int64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

/// Self time of each span in `spans`: its duration minus the union of its
/// children's intervals, clipped to its own interval. Open spans get 0.
std::vector<double> SelfSeconds(const std::vector<Span>& spans);

/// Per-name totals over the closed spans of `spans`.
std::map<std::string, SpanTotals> Summarize(const std::vector<Span>& spans);

/// Thread-safe. The stack of open spans is per thread, not per tracer, so
/// a thread records into one tracer at a time.
class Tracer {
 public:
  /// At most `max_spans` spans are kept; later ones are counted as
  /// dropped (a serving phase can send hundreds of thousands).
  explicit Tracer(size_t max_spans = 400000) : max_spans_(max_spans) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span on the calling thread, child of the span the thread has
  /// open. `name` must have static storage duration. Returns its id, or
  /// -1 when the span was dropped.
  int32_t Begin(const char* name, int64_t request = -1)
      NSC_EXCLUDES(mu_);

  /// Closes span `id` (a no-op for -1). Spans close in LIFO order per
  /// thread.
  void End(int32_t id) NSC_EXCLUDES(mu_);

  std::vector<Span> spans() const NSC_EXCLUDES(mu_);
  int64_t dropped() const NSC_EXCLUDES(mu_);

  /// Writes the spans as Chrome trace-event JSON. Returns false on I/O
  /// failure.
  bool WriteChromeTrace(const std::string& path) const NSC_EXCLUDES(mu_);

 private:
  const size_t max_spans_;
  mutable Mutex mu_;
  std::vector<Span> spans_ NSC_GUARDED_BY(mu_);
  int64_t dropped_ NSC_GUARDED_BY(mu_) = 0;
};

/// RAII span; does nothing when `tracer` is null (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t request = -1)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

}  // namespace perfbench
}  // namespace nsc

#endif  // NSCACHING_PERFBENCH_TRACE_H_
