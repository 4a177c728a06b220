// Global thread configuration for the host-parallel execution subsystem.
//
// The Pagh–Silvestri model counts block transfers, not CPU cycles, so host
// compute (radix scatter, GF(2^61-1) refinement bits, whole Lemma 2 pivot
// chunks) may fan out across cores without perturbing a single counted
// I/O. The knob here is the *only* input the subsystem takes: a
// process-wide thread count, default 1, so every serial code path — and
// every existing test — is byte-for-byte unchanged until a caller opts in.
// It is also the library's only process-global switch; query::RunQuery
// installs a query's count for the run's duration.
//
// Contract (enforced by tests/test_parallel.cc): for any thread count N,
// every algorithm produces identical triangle output, identical emission
// order, and identical IoStats to threads=1. Parallel kernels achieve this
// by splitting pure host work over stable contiguous partitions (see
// partition.h) and merging results in partition order, or by replaying
// workers' charge logs and emits in task order (RunOrdered).
#ifndef TRIENUM_PAR_PAR_CONFIG_H_
#define TRIENUM_PAR_PAR_CONFIG_H_

#include <atomic>
#include <cstddef>
#include <thread>

namespace trienum::par {

/// Upper bound on the configured thread count: a safety clamp against
/// pathological SetThreads arguments, far above any real core count the
/// pool would help on.
inline constexpr std::size_t kMaxThreads = 256;

namespace internal {
inline std::atomic<std::size_t>& ThreadsStorage() {
  static std::atomic<std::size_t> threads{1};
  return threads;
}
}  // namespace internal

/// The machine's hardware concurrency (never 0: falls back to 1 when the
/// runtime cannot tell).
inline std::size_t HardwareThreads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<std::size_t>(hc);
}

/// Current process-wide thread count consulted by ParallelFor /
/// ParallelReduce at entry. Default 1 (fully serial).
inline std::size_t Threads() {
  return internal::ThreadsStorage().load(std::memory_order_relaxed);
}

/// Sets the process-wide thread count. 0 means "use the hardware
/// concurrency"; values above kMaxThreads are clamped. The storage is
/// atomic, so a monitoring thread may read Threads() concurrently, but the
/// intended use is configuration from the main thread between parallel
/// regions — pool workers must never call this.
inline void SetThreads(std::size_t n) {
  if (n == 0) n = HardwareThreads();
  if (n > kMaxThreads) n = kMaxThreads;
  internal::ThreadsStorage().store(n, std::memory_order_relaxed);
}

/// RAII scope flipping the global thread count (tests / benches). The
/// override is process-wide state: construct and destroy it on the main
/// thread only, never inside a pool worker.
class ScopedThreads {
 public:
  explicit ScopedThreads(std::size_t n) : saved_(Threads()) { SetThreads(n); }
  ~ScopedThreads() { SetThreads(saved_); }
  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;

 private:
  std::size_t saved_;
};

}  // namespace trienum::par

#endif  // TRIENUM_PAR_PAR_CONFIG_H_
