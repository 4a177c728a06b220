// Process-wide metrics: counters, gauges, and log2-bucket latency
// histograms, attached to the real-I/O seams of the EM stack.
//
// Design rules:
//   - The fast path (Add / Set / Observe) is lock-free: relaxed atomics
//     only, safe from any thread including the par pool. Registration (GetHistogram etc.) interns by name under
//     a mutex and returns a reference with a stable address, so seam code
//     resolves its instrument once (function-local static) and never pays
//     the lookup again.
//   - Snapshots read the same atomics, so they are TSan-clean by
//     construction: a snapshot taken mid-burst sees a consistent-enough
//     view (each cell individually atomic; count/sum may trail each other
//     by in-flight observations, never tear).
//   - Metrics are always on. They instrument only real-I/O seams — pread/
//     pwrite calls, retry backoff sleeps, merge-pass walls — where two steady_clock reads are noise against the measured
//     operation. The *counted* charge sequence (IoStats, work) is never
//     touched; see README "Observability" for the invariance contract.
//
// Histogram geometry: 64 fixed buckets. Bucket 0 holds the value 0; bucket
// i >= 1 holds values in [2^(i-1), 2^i - 1]. Values are nanoseconds at
// every current seam, but the histogram itself is unit-agnostic.
#ifndef TRIENUM_OBS_METRICS_H_
#define TRIENUM_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace trienum::obs {

class Counter {
 public:
  void Add(std::uint64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void Set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

inline constexpr int kHistogramBuckets = 64;

/// Bucket index for a value: 0 -> 0, else 1 + floor(log2 v), capped at 63.
inline int HistogramBucketIndex(std::uint64_t v) {
  int i = std::bit_width(v);  // 0 for v == 0
  return i > kHistogramBuckets - 1 ? kHistogramBuckets - 1 : i;
}

/// Inclusive lower edge of bucket i (bucket 0 holds only the value 0;
/// bucket 1 starts at 1 = 2^0).
inline std::uint64_t HistogramBucketLo(int i) {
  return i == 0 ? 0 : (std::uint64_t{1} << (i - 1));
}

/// Inclusive upper edge of bucket i (UINT64_MAX for the last bucket).
inline std::uint64_t HistogramBucketHi(int i) {
  if (i == 0) return 0;
  if (i >= kHistogramBuckets - 1) return ~std::uint64_t{0};
  return (std::uint64_t{1} << i) - 1;
}

struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;  // sum of observed values
  std::uint64_t max = 0;  // high-water mark (not resettable by subtraction)
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  /// Per-bucket / count / sum delta for windowed views (e.g. one query's
  /// worth of observations). `max` keeps the left operand's value: a
  /// high-water mark has no meaningful difference.
  HistogramSnapshot operator-(const HistogramSnapshot& rhs) const;
};

class Histogram {
 public:
  void Observe(std::uint64_t v) {
    buckets_[HistogramBucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t prev = max_.load(std::memory_order_relaxed);
    while (v > prev &&
           !max_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
    }
  }

  /// Observes a duration in nanoseconds.
  void ObserveDuration(std::chrono::steady_clock::duration d) {
    Observe(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count()));
  }

  HistogramSnapshot Snapshot(std::string name = {}) const;

 private:
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// RAII latency timer: observes the scope's wall time (ns) on destruction.
class LatencyTimer {
 public:
  explicit LatencyTimer(Histogram& h)
      : h_(h), t0_(std::chrono::steady_clock::now()) {}
  ~LatencyTimer() { h_.ObserveDuration(std::chrono::steady_clock::now() - t0_); }
  LatencyTimer(const LatencyTimer&) = delete;
  LatencyTimer& operator=(const LatencyTimer&) = delete;

 private:
  Histogram& h_;
  std::chrono::steady_clock::time_point t0_;
};

/// The process-wide registry. Instruments live for the process lifetime
/// (stable addresses); snapshotting never blocks the fast path.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  struct Snapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, std::int64_t>> gauges;
    std::vector<HistogramSnapshot> histograms;
  };
  Snapshot Snap() const;

 private:
  MetricsRegistry() = default;
  struct Impl;
  Impl& impl() const;
};

// Well-known histogram names: the real-I/O seams this PR instruments.
// The "_ns" suffix marks the unit.
namespace metric_names {
inline constexpr char kFileReadNs[] = "storage.file.read_syscall_ns";
inline constexpr char kFileWriteNs[] = "storage.file.write_syscall_ns";
inline constexpr char kRecoveryBackoffNs[] = "recovery.backoff_sleep_ns";
inline constexpr char kMergePassNs[] = "sort.merge_pass_wall_ns";
}  // namespace metric_names

}  // namespace trienum::obs

#endif  // TRIENUM_OBS_METRICS_H_
