#include "measure.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <unistd.h>

#include "trace.h"

namespace nsc {
namespace perfbench {

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 over (seed, stream).
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + (stream + 1) * 0xD1B54A32D192ED03ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

LatencySummary Summarize(std::vector<double> values) {
  LatencySummary s;
  s.samples = static_cast<int64_t>(values.size());
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  const auto rank = [&](double q) {
    const size_t r = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
    return values[std::max<size_t>(r, 1) - 1];
  };
  s.p50 = rank(0.50);
  s.p99 = rank(0.99);
  s.beyond_p99 = static_cast<int64_t>(
      values.end() - std::upper_bound(values.begin(), values.end(), s.p99));
  s.p99_supported = s.beyond_p99 >= LatencySummary::kMinBeyond;
  return s;
}

double StealSeconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  // cpu user nice system idle iowait irq softirq steal ...
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n != 8) return 0.0;
  return static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

StealMonitor::StealMonitor() {
  {
    MutexLock lock(&mu_);
    samples_.emplace_back(NowNs(), StealSeconds());
  }
  thread_ = std::thread([this] { Run(); });
}

StealMonitor::~StealMonitor() {
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  wake_.NotifyAll();
  thread_.join();
}

void StealMonitor::Run() {
  MutexLock lock(&mu_);
  while (!stop_) {
    wake_.WaitFor(&mu_, 100000);
    samples_.emplace_back(NowNs(), StealSeconds());
  }
}

double StealMonitor::At(int64_t ns) const {
  // The last sample at or before `ns` (the first one before any).
  auto it = std::upper_bound(
      samples_.begin(), samples_.end(), ns,
      [](int64_t t, const std::pair<int64_t, double>& s) { return t < s.first; });
  if (it != samples_.begin()) --it;
  return it->second;
}

double StealMonitor::Between(int64_t start_ns, int64_t end_ns) const {
  MutexLock lock(&mu_);
  return At(end_ns) - At(start_ns);
}

std::vector<Window> EqualWindows(int64_t start_ns, int64_t end_ns,
                                 int64_t samples) {
  const int n = static_cast<int>(std::clamp<int64_t>(samples / 2000, 1, 10));
  const double width =
      static_cast<double>(end_ns - start_ns) / static_cast<double>(n);
  std::vector<Window> windows;
  for (int w = 0; w < n; ++w) {
    windows.emplace_back(start_ns + static_cast<int64_t>(w * width),
                         start_ns + static_cast<int64_t>((w + 1) * width));
  }
  return windows;
}

WindowedSummary SummarizeWindows(const std::vector<double>& values,
                                 const std::vector<int64_t>& done_ns,
                                 const std::vector<Window>& windows,
                                 const StealBetween& steal) {
  WindowedSummary out;
  out.samples = static_cast<int64_t>(values.size());
  out.windows = static_cast<int>(windows.size());
  std::vector<std::vector<double>> in(windows.size());
  for (size_t i = 0; i < values.size() && i < done_ns.size(); ++i) {
    const auto after = std::upper_bound(
        windows.begin(), windows.end(), done_ns[i],
        [](int64_t t, const Window& w) { return t < w.first; });
    const size_t w = after == windows.begin() ? 0 : after - windows.begin() - 1;
    in[w].push_back(values[i]);
  }
  std::vector<double> stolen(windows.size(), 0.0);
  if (steal) {
    for (size_t w = 0; w < windows.size(); ++w) {
      stolen[w] = steal(windows[w].first, windows[w].second);
    }
  }
  out.median_steal_s = Median(stolen);
  out.min_beyond_p99 = out.samples;
  std::vector<double> rates, p50s, p99s;
  for (size_t w = 0; w < windows.size(); ++w) {
    if (stolen[w] > out.median_steal_s) continue;
    const LatencySummary s = Summarize(in[w]);
    rates.push_back(static_cast<double>(in[w].size()) /
                    (static_cast<double>(windows[w].second - windows[w].first) *
                     1e-9));
    p50s.push_back(s.p50);
    p99s.push_back(s.p99);
    out.min_beyond_p99 = std::min(out.min_beyond_p99, s.beyond_p99);
    ++out.kept;
  }
  out.rate = Median(rates);
  out.p50 = Median(p50s);
  out.p99 = Median(p99s);
  return out;
}

double PeakRssMb() {
  // VmHWM is this address space's own high-water mark. getrusage's
  // ru_maxrss also keeps the peak of the process that exec'd this one
  // (run.py's Python), which can exceed a small workload's own.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    Flag("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, {value, unit}});
}

void Report::Fail(const std::string& why, int64_t n) {
  failed_ += n;
  correct_ = false;
  std::fprintf(stderr, "perfbench: FAILED (%lld): %s\n",
               static_cast<long long>(n), why.c_str());
}

void Report::Flag(const std::string& why) {
  correct_ = false;
  std::fprintf(stderr, "perfbench: INCORRECT: %s\n", why.c_str());
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics_[i].second.first);
    out += (i == 0 ? "\"" : ", \"") + metrics_[i].first + "\": {\"value\": " +
           buf + ", \"unit\": \"" + metrics_[i].second.second + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
}  // namespace nsc
