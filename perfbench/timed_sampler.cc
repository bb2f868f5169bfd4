#include "timed_sampler.h"

namespace nsc {
namespace perfbench {

TimedSampler::Slot& TimedSampler::MySlot() {
  struct Cached {
    const TimedSampler* owner = nullptr;
    int slot = 0;
  };
  thread_local Cached cached;
  if (cached.owner != this) {
    cached.owner = this;
    cached.slot = next_slot_.fetch_add(1, std::memory_order_relaxed) % kSlots;
  }
  return slots_[cached.slot];
}

void TimedSampler::Account(int64_t ns, int64_t count) {
  Slot& slot = MySlot();
  slot.busy_ns.fetch_add(ns, std::memory_order_relaxed);
  slot.count.fetch_add(count, std::memory_order_relaxed);
}

NegativeSample TimedSampler::Sample(const Triple& pos, Rng* rng) {
  const int64_t start = NowNs();
  const NegativeSample neg = inner_->Sample(pos, rng);
  Account(NowNs() - start, 1);
  return neg;
}

void TimedSampler::SampleBatch(const Triple* pos, size_t n, Rng* rng,
                               NegativeSample* out) {
  ScopedSpan span(tracer_, span_name_);
  const int64_t start = NowNs();
  inner_->SampleBatch(pos, n, rng, out);
  Account(NowNs() - start, static_cast<int64_t>(n));
}

double TimedSampler::busy_seconds() const {
  int64_t ns = 0;
  for (const Slot& s : slots_) ns += s.busy_ns.load(std::memory_order_relaxed);
  return static_cast<double>(ns) * 1e-9;
}

int64_t TimedSampler::sampled() const {
  int64_t n = 0;
  for (const Slot& s : slots_) n += s.count.load(std::memory_order_relaxed);
  return n;
}

}  // namespace perfbench
}  // namespace nsc
