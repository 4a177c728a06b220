// Process-wide selection of the intersection kernel variant.
//
// The kernels in simd/intersect.h come in three functionally identical
// implementations: the scalar reference, a portable SWAR (64-bit) blocked
// variant that is always compiled, and an AVX2 variant compiled only when
// the build enables it (TRIENUM_NATIVE on an AVX2 host). Which one services
// a call is a pure performance knob: every variant produces bit-identical
// results, so flipping the mode must never change output, work counters, or
// IoStats — the differential suite (tests/test_simd_invariance.cc) pins
// exactly that.
//
// The mode mirrors par_config.h's pattern: one relaxed atomic, a Scoped
// RAII override for tests, and a resolver (`ActiveVariant`) that clamps
// requests the build or CPU cannot honor down to the best available
// fallback. Per-variant invocation counters let tests prove which path
// actually executed (e.g. that the SWAR fallback runs when AVX2 is masked
// off) instead of trusting the dispatch logic.
#ifndef TRIENUM_SIMD_KERNEL_POLICY_H_
#define TRIENUM_SIMD_KERNEL_POLICY_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace trienum::simd {

/// Requested kernel policy (what the user or a test asked for).
enum class KernelMode : int {
  kAuto = 0,    ///< best available: AVX2 if compiled + supported, else SWAR
  kScalar = 1,  ///< the scalar reference loops ("kernels off")
  kSwar = 2,    ///< portable 64-bit blocked kernels (always compiled)
  kAvx2 = 3,    ///< 256-bit kernels (needs TRIENUM_NATIVE on an AVX2 host)
};

/// The variant a kernel call actually executes (kAuto and unavailable
/// requests resolved).
enum class KernelVariant : int { kScalar = 0, kSwar = 1, kAvx2 = 2 };

inline constexpr int kNumKernelVariants = 3;

namespace internal {
std::atomic<int>& ModeStorage();

/// One thread's invocation counters, alone on its cache line: pool workers
/// running Lemma 2 chunks call the kernels millions of times per query, and
/// a shared counter line would bounce between their cores on every call.
struct alignas(64) InvocationSlot {
  std::atomic<std::uint64_t> by_variant[kNumKernelVariants] = {};
};

/// This thread's slot, registered on first use; registration lives until
/// the thread exits, when its counts fold into a process-wide total.
InvocationSlot* RegisterInvocationSlot();
inline thread_local InvocationSlot* tls_invocation_slot = nullptr;
}  // namespace internal

/// True iff the AVX2 kernels are compiled in (__AVX2__ builds) AND the CPU
/// reports AVX2 at runtime.
bool Avx2Available();

/// True iff the AVX2 kernels are compiled into this binary at all —
/// build-provenance (surfaced by `trienum version`), independent of what
/// the running CPU supports.
bool Avx2Compiled();

/// Current requested mode (default kAuto).
inline KernelMode Mode() {
  return static_cast<KernelMode>(
      internal::ModeStorage().load(std::memory_order_relaxed));
}

/// Sets the requested mode. An unsatisfiable request (kAvx2 without AVX2)
/// is kept as requested but resolves to the SWAR fallback at call time —
/// so test matrices can request every mode unconditionally.
inline void SetMode(KernelMode m) {
  internal::ModeStorage().store(static_cast<int>(m),
                                std::memory_order_relaxed);
}

/// Resolves the current mode to the variant kernel calls will run now.
inline KernelVariant ActiveVariant() {
  switch (Mode()) {
    case KernelMode::kScalar:
      return KernelVariant::kScalar;
    case KernelMode::kSwar:
      return KernelVariant::kSwar;
    case KernelMode::kAvx2:
    case KernelMode::kAuto:
      return Avx2Available() ? KernelVariant::kAvx2 : KernelVariant::kSwar;
  }
  return KernelVariant::kSwar;  // unreachable
}

/// Kernel entry points bump their variant's counter in the calling thread's
/// own slot. Only that thread writes the slot, so a relaxed load and store
/// count exactly; a locked fetch_add costs several times more per call and,
/// measured on a 4-vCPU VM, slows down with every extra thread even on
/// private lines. The atomic type keeps Invocations' reads from other
/// threads race-free.
inline void CountInvocation(KernelVariant v) {
  internal::InvocationSlot* slot = internal::tls_invocation_slot;
  if (slot == nullptr) slot = internal::RegisterInvocationSlot();
  std::atomic<std::uint64_t>& n = slot->by_variant[static_cast<int>(v)];
  n.store(n.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

/// Total kernel entries serviced by `v` since the last reset, summed over
/// every thread, including threads that have exited.
std::uint64_t Invocations(KernelVariant v);

/// Zeroes every thread's counters. Call it while no other thread is inside
/// a kernel (between runs): a concurrent increment could undo the reset.
void ResetInvocationCounters();

/// RAII mode override for tests and A/B benches.
class ScopedKernelMode {
 public:
  explicit ScopedKernelMode(KernelMode m) : prev_(Mode()) { SetMode(m); }
  ~ScopedKernelMode() { SetMode(prev_); }
  ScopedKernelMode(const ScopedKernelMode&) = delete;
  ScopedKernelMode& operator=(const ScopedKernelMode&) = delete;

 private:
  KernelMode prev_;
};

const char* KernelModeName(KernelMode m);
const char* KernelVariantName(KernelVariant v);

/// Parses "auto" / "scalar" / "swar" / "avx2"; returns false on anything
/// else (the CLI turns that into a usage error).
bool ParseKernelMode(const std::string& s, KernelMode* out);

}  // namespace trienum::simd

#endif  // TRIENUM_SIMD_KERNEL_POLICY_H_
