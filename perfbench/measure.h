// Measurement helpers shared by every workload: percentiles with the
// tail-sample guard, the run report (the JSON line run.py forwards), peak
// RSS, and seed derivation.
#ifndef NSCACHING_PERFBENCH_MEASURE_H_
#define NSCACHING_PERFBENCH_MEASURE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace nsc {
namespace perfbench {

/// Seeds derived from the workload seed, one independent stream per use,
/// so every input the program receives is a function of --seed alone.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// The seed reserved for verifying a later performance claim. Tuning and
/// steadiness runs use seeds 1-130; a claim must also hold on this one,
/// which no run used while the benchmark or the change was written.
inline constexpr uint64_t kReservedVerificationSeed = 7919;

/// Median of `values` (0 for an empty input).
double Median(std::vector<double> values);

/// Latency percentiles of one sample set. A percentile is only reported
/// when at least `kMinBeyond` samples lie beyond it.
struct LatencySummary {
  static constexpr int64_t kMinBeyond = 10;
  int64_t samples = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  int64_t beyond_p99 = 0;  ///< Samples strictly slower than p99.
  /// False when fewer than kMinBeyond samples lie beyond p99: the p99 is
  /// then an extrapolation and the run is flagged.
  bool p99_supported = false;
};

/// Nearest-rank percentiles of `values` (any unit).
LatencySummary Summarize(std::vector<double> values);

/// Seconds of CPU time the hypervisor gave to other guests while this
/// machine's CPUs wanted to run ("steal" in /proc/stat), summed over CPUs
/// since boot; 0 where the kernel does not report it.
double StealSeconds();

/// Samples StealSeconds() every 100 ms on its own thread while alive, so
/// a phase can tell which of its windows the host disturbed.
class StealMonitor {
 public:
  StealMonitor();
  /// Stops and joins the sampling thread.
  ~StealMonitor();

  StealMonitor(const StealMonitor&) = delete;
  StealMonitor& operator=(const StealMonitor&) = delete;

  /// Steal seconds between two NowNs() times, from the samples.
  double Between(int64_t start_ns, int64_t end_ns) const NSC_EXCLUDES(mu_);

 private:
  void Run() NSC_EXCLUDES(mu_);
  double At(int64_t ns) const NSC_REQUIRES(mu_);

  mutable Mutex mu_;
  CondVar wake_;
  bool stop_ NSC_GUARDED_BY(mu_) = false;
  /// (NowNs(), StealSeconds()) pairs in time order.
  std::vector<std::pair<int64_t, double>> samples_ NSC_GUARDED_BY(mu_);
  std::thread thread_;
};

/// Serving figures of closed-loop load, robust to a shared host: the
/// load runs in windows, the windows in which the hypervisor stole more
/// CPU time than in the median window are set aside, and each figure is
/// the median over the rest of the window's request rate, p50 and p99.
/// At least half of the windows are always kept, and all of them when no
/// window was disturbed more than another, so a slowdown that lasts the
/// whole run still shows.
struct WindowedSummary {
  int windows = 0;
  int kept = 0;
  int64_t samples = 0;
  double rate = 0.0;  ///< Requests per second.
  double p50 = 0.0;
  double p99 = 0.0;
  double median_steal_s = 0.0;  ///< Steal in the median window.
  /// Fewest samples beyond its p99 in any kept window; below
  /// LatencySummary::kMinBeyond the run is flagged.
  int64_t min_beyond_p99 = 0;
};

/// Steal seconds between two NowNs() times.
using StealBetween = std::function<double(int64_t, int64_t)>;

/// A [start, end) interval of NowNs() times.
using Window = std::pair<int64_t, int64_t>;

/// Equal windows covering [start_ns, end_ns): one per 2,000 of `samples`,
/// at least 1 and at most 10.
std::vector<Window> EqualWindows(int64_t start_ns, int64_t end_ns,
                                 int64_t samples);

/// `values[i]` completed at `done_ns[i]` and counts in the last window
/// that starts at or before it. `windows` are in time order and do not
/// overlap. Without `steal`, every window is kept.
WindowedSummary SummarizeWindows(const std::vector<double>& values,
                                 const std::vector<int64_t>& done_ns,
                                 const std::vector<Window>& windows,
                                 const StealBetween& steal = nullptr);

/// Peak resident set size of this process in MB (VmHWM).
double PeakRssMb();

/// The result of one benchmark run, printed as the last stdout line:
/// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Counts operations; a failed one also clears `correct`.
  void Attempt(int64_t n) { attempted_ += n; }
  void Fail(const std::string& why, int64_t n = 1);
  /// Marks the run incorrect without a failed operation (a broken
  /// invariant of the benchmark itself, e.g. too few tail samples).
  void Flag(const std::string& why);

  bool correct() const { return correct_; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  std::string ToJson() const;

 private:
  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
};

}  // namespace perfbench
}  // namespace nsc

#endif  // NSCACHING_PERFBENCH_MEASURE_H_
