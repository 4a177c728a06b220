// Thread-count limits for the host-parallel execution subsystem.
//
// The Pagh–Silvestri model counts block transfers, not CPU cycles, so host
// compute (whole Lemma 2 pivot chunks) may fan out across cores without
// perturbing a single counted I/O. The thread count is a setting of one
// query, carried by em::QuerySession (default 1, so every serial code path
// is byte-for-byte the default); query::RunQuery resolves Query::threads
// against the limits below.
//
// Contract (enforced by tests/test_parallel.cc): for any thread count N,
// every algorithm produces identical triangle output, identical emission
// order, and identical IoStats to threads=1. The one parallel shape,
// RunOrdered (thread_pool.h), achieves this by replaying workers' charge
// logs and emits on the caller in task order.
#ifndef TRIENUM_PAR_PAR_CONFIG_H_
#define TRIENUM_PAR_PAR_CONFIG_H_

#include <cstddef>
#include <thread>

namespace trienum::par {

/// Upper bound on a query's thread count: a safety clamp against
/// pathological requests, far above any real core count the pool would
/// help on.
inline constexpr std::size_t kMaxThreads = 256;

/// The machine's hardware concurrency (never 0: falls back to 1 when the
/// runtime cannot tell).
inline std::size_t HardwareThreads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<std::size_t>(hc);
}

}  // namespace trienum::par

#endif  // TRIENUM_PAR_PAR_CONFIG_H_
