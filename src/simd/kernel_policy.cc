#include "simd/kernel_policy.h"

#include <algorithm>
#include <mutex>
#include <vector>

namespace trienum::simd {
namespace internal {
namespace {

/// The registered slots of live threads plus the counts of exited ones.
struct SlotRegistry {
  std::mutex mu;
  std::vector<InvocationSlot*> live;                // guarded by mu
  std::uint64_t retired[kNumKernelVariants] = {};  // guarded by mu
};

/// Never destroyed: pool workers exit (and unregister) during static
/// destruction, after a function-local static registry could be gone.
SlotRegistry& Registry() {
  static SlotRegistry* registry = new SlotRegistry;
  return *registry;
}

/// Owns one thread's slot for the thread's lifetime.
struct SlotOwner {
  InvocationSlot slot;
  SlotOwner() {
    SlotRegistry& r = Registry();
    std::lock_guard<std::mutex> lk(r.mu);
    r.live.push_back(&slot);
  }
  ~SlotOwner() {
    SlotRegistry& r = Registry();
    std::lock_guard<std::mutex> lk(r.mu);
    for (int v = 0; v < kNumKernelVariants; ++v) {
      r.retired[v] += slot.by_variant[v].load(std::memory_order_relaxed);
    }
    r.live.erase(std::find(r.live.begin(), r.live.end(), &slot));
    tls_invocation_slot = nullptr;
  }
  SlotOwner(const SlotOwner&) = delete;
  SlotOwner& operator=(const SlotOwner&) = delete;
};

}  // namespace

std::atomic<int>& ModeStorage() {
  static std::atomic<int> mode{static_cast<int>(KernelMode::kAuto)};
  return mode;
}

InvocationSlot* RegisterInvocationSlot() {
  thread_local SlotOwner owner;
  tls_invocation_slot = &owner.slot;
  return &owner.slot;
}

}  // namespace internal

std::uint64_t Invocations(KernelVariant v) {
  internal::SlotRegistry& r = internal::Registry();
  std::lock_guard<std::mutex> lk(r.mu);
  const int i = static_cast<int>(v);
  std::uint64_t total = r.retired[i];
  for (const internal::InvocationSlot* s : r.live) {
    total += s->by_variant[i].load(std::memory_order_relaxed);
  }
  return total;
}

bool Avx2Compiled() {
#if defined(__AVX2__)
  return true;
#else
  return false;
#endif
}

bool Avx2Available() {
#if defined(__AVX2__)
  // Compiled with AVX2 enabled (TRIENUM_NATIVE): still gate on the CPU so a
  // binary built on an AVX2 box degrades instead of faulting elsewhere.
  static const bool avail = __builtin_cpu_supports("avx2");
  return avail;
#else
  return false;
#endif
}

void ResetInvocationCounters() {
  internal::SlotRegistry& r = internal::Registry();
  std::lock_guard<std::mutex> lk(r.mu);
  for (int v = 0; v < kNumKernelVariants; ++v) {
    r.retired[v] = 0;
    for (internal::InvocationSlot* s : r.live) {
      s->by_variant[v].store(0, std::memory_order_relaxed);
    }
  }
}

const char* KernelModeName(KernelMode m) {
  switch (m) {
    case KernelMode::kAuto:
      return "auto";
    case KernelMode::kScalar:
      return "scalar";
    case KernelMode::kSwar:
      return "swar";
    case KernelMode::kAvx2:
      return "avx2";
  }
  return "?";
}

const char* KernelVariantName(KernelVariant v) {
  switch (v) {
    case KernelVariant::kScalar:
      return "scalar";
    case KernelVariant::kSwar:
      return "swar";
    case KernelVariant::kAvx2:
      return "avx2";
  }
  return "?";
}

bool ParseKernelMode(const std::string& s, KernelMode* out) {
  if (s == "auto") {
    *out = KernelMode::kAuto;
  } else if (s == "scalar") {
    *out = KernelMode::kScalar;
  } else if (s == "swar") {
    *out = KernelMode::kSwar;
  } else if (s == "avx2") {
    *out = KernelMode::kAvx2;
  } else {
    return false;
  }
  return true;
}

}  // namespace trienum::simd
