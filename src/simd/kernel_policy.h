// Per-thread invocation counters for the simd/intersect.h kernels.
//
// Every kernel entry point (IntersectSorted, DenseBitmap::Probe,
// ProbeFlatMapU32) bumps one counter in the calling thread's own slot, so
// a test or the benchmark can read how many kernel calls a run made. Each
// operation has exactly one (scalar) implementation; `KernelVariant` keeps
// a single value so readers that key their counts by variant still work.
#ifndef TRIENUM_SIMD_KERNEL_POLICY_H_
#define TRIENUM_SIMD_KERNEL_POLICY_H_

#include <atomic>
#include <cstdint>

namespace trienum::simd {

/// The implementation a kernel call runs. There is one.
enum class KernelVariant : int { kScalar = 0 };

namespace internal {

/// One thread's invocation counter, alone on its cache line: pool workers
/// running Lemma 2 chunks call the kernels millions of times per query, and
/// a shared counter line would bounce between their cores on every call.
struct alignas(64) InvocationSlot {
  std::atomic<std::uint64_t> calls{0};
};

/// This thread's slot, registered on first use; registration lives until
/// the thread exits, when its count folds into a process-wide total.
InvocationSlot* RegisterInvocationSlot();
inline thread_local InvocationSlot* tls_invocation_slot = nullptr;

}  // namespace internal

/// The variant kernel calls run: always kScalar.
inline KernelVariant ActiveVariant() { return KernelVariant::kScalar; }

/// Kernel entry points bump the calling thread's own slot. Only that thread
/// writes the slot, so a relaxed load and store count exactly; a locked
/// fetch_add costs several times more per call and, measured on a 4-vCPU
/// VM, slows down with every extra thread even on private lines. The atomic
/// type keeps Invocations' reads from other threads race-free.
inline void CountInvocation() {
  internal::InvocationSlot* slot = internal::tls_invocation_slot;
  if (slot == nullptr) slot = internal::RegisterInvocationSlot();
  slot->calls.store(slot->calls.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
}

/// Total kernel entries since the last reset, summed over every thread,
/// including threads that have exited.
std::uint64_t Invocations(KernelVariant v);

/// Zeroes every thread's counter. Call it while no other thread is inside
/// a kernel (between runs): a concurrent increment could undo the reset.
void ResetInvocationCounters();

const char* KernelVariantName(KernelVariant v);

}  // namespace trienum::simd

#endif  // TRIENUM_SIMD_KERNEL_POLICY_H_
