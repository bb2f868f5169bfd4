// A pass-through NegativeSampler decorator that times the sampler it
// wraps. The traced training runs put it between the Trainer and the
// real sampler (NSCachingSampler in core/, BernoulliSampler in sampler/),
// so sampling time is measured from outside the program.
//
// It must change nothing: the trainer picks its execution path from the
// sampler's traits (a sampler that is not thread_safe_sampling() is
// drawn in a serial pre-pass under Hogwild), so the decorator forwards
// every virtual — Sample, SampleBatch, Feedback, BeginEpoch,
// stateless_sampling() and thread_safe_sampling() — and SampleBatch goes
// to the inner sampler's own SampleBatch, which consumes the Rng exactly
// as an undecorated run does.
//
// Timing: each SampleBatch call is a span on the tracer (one per
// mini-batch). Per-triple Sample calls, which Hogwild workers make for
// every positive, are too many to keep as spans; their busy time and
// count accumulate in per-thread slots instead.
#ifndef NSCACHING_PERFBENCH_TIMED_SAMPLER_H_
#define NSCACHING_PERFBENCH_TIMED_SAMPLER_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "sampler/negative_sampler.h"
#include "trace.h"

namespace nsc {
namespace perfbench {

class TimedSampler : public NegativeSampler {
 public:
  /// `inner` and `tracer` are borrowed; `tracer` may be null (counters
  /// only). `span_name` names the SampleBatch spans and must have static
  /// storage duration.
  TimedSampler(NegativeSampler* inner, Tracer* tracer, const char* span_name)
      : inner_(inner), tracer_(tracer), span_name_(span_name) {}

  std::string name() const override { return inner_->name(); }
  NegativeSample Sample(const Triple& pos, Rng* rng) override;
  void SampleBatch(const Triple* pos, size_t n, Rng* rng,
                   NegativeSample* out) override;
  bool stateless_sampling() const override {
    return inner_->stateless_sampling();
  }
  bool thread_safe_sampling() const override {
    return inner_->thread_safe_sampling();
  }
  void Feedback(const Triple& pos, const NegativeSample& neg,
                double neg_score) override {
    inner_->Feedback(pos, neg, neg_score);
  }
  void BeginEpoch(int epoch) override { inner_->BeginEpoch(epoch); }

  /// Seconds spent inside the inner sampler, summed over threads, and
  /// the number of negatives it drew. Exact between batches.
  double busy_seconds() const;
  int64_t sampled() const;

 private:
  static constexpr int kSlots = 64;
  struct alignas(64) Slot {
    std::atomic<int64_t> busy_ns{0};
    std::atomic<int64_t> count{0};
  };
  /// The calling thread's slot (single writer per slot).
  Slot& MySlot();
  void Account(int64_t ns, int64_t count);

  NegativeSampler* inner_;
  Tracer* tracer_;
  const char* span_name_;
  std::atomic<int> next_slot_{0};
  Slot slots_[kSlots];
};

}  // namespace perfbench
}  // namespace nsc

#endif  // NSCACHING_PERFBENCH_TIMED_SAMPLER_H_
