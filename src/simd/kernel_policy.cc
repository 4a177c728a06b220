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
  std::vector<InvocationSlot*> live;  // guarded by mu
  std::uint64_t retired = 0;          // guarded by mu
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
    r.retired += slot.calls.load(std::memory_order_relaxed);
    r.live.erase(std::find(r.live.begin(), r.live.end(), &slot));
    tls_invocation_slot = nullptr;
  }
  SlotOwner(const SlotOwner&) = delete;
  SlotOwner& operator=(const SlotOwner&) = delete;
};

}  // namespace

InvocationSlot* RegisterInvocationSlot() {
  thread_local SlotOwner owner;
  tls_invocation_slot = &owner.slot;
  return &owner.slot;
}

}  // namespace internal

std::uint64_t Invocations(KernelVariant /*v*/) {
  internal::SlotRegistry& r = internal::Registry();
  std::lock_guard<std::mutex> lk(r.mu);
  std::uint64_t total = r.retired;
  for (const internal::InvocationSlot* s : r.live) {
    total += s->calls.load(std::memory_order_relaxed);
  }
  return total;
}

void ResetInvocationCounters() {
  internal::SlotRegistry& r = internal::Registry();
  std::lock_guard<std::mutex> lk(r.mu);
  r.retired = 0;
  for (internal::InvocationSlot* s : r.live) {
    s->calls.store(0, std::memory_order_relaxed);
  }
}

const char* KernelVariantName(KernelVariant /*v*/) { return "scalar"; }

}  // namespace trienum::simd
