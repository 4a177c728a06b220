#include "par/thread_pool.h"

#include <string>

#include "obs/trace.h"

namespace trienum::par {
namespace {

/// Set while the current thread executes a part of some region; consulted by
/// Run's nested fan-out rejection.
thread_local bool tls_in_region = false;

/// RAII flip of the region flag around one task invocation.
struct RegionScope {
  RegionScope() { tls_in_region = true; }
  ~RegionScope() { tls_in_region = false; }
};

}  // namespace

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool;
  return pool;
}

std::size_t ThreadPool::spawned_workers() const {
  std::lock_guard<std::mutex> lk(mu_);
  return workers_.size();
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::EnsureWorkers(std::size_t want) {
  std::lock_guard<std::mutex> lk(mu_);
  while (workers_.size() < want) {
    const std::size_t id = workers_.size();
    workers_.emplace_back([this, id] {
      // Named tracks in --trace output: pool helpers show as their own
      // tids, so fan-out width and load balance are visible in the viewer.
      obs::SetCurrentThreadName("par-worker-" + std::to_string(id));
      WorkerLoop(id);
    });
  }
}

void ThreadPool::WorkerLoop(std::size_t id) {
  std::unique_lock<std::mutex> lk(mu_);
  std::uint64_t seen = 0;
  for (;;) {
    cv_work_.wait(lk, [&] { return shutdown_ || generation_ != seen; });
    if (shutdown_) return;
    seen = generation_;
    // A region runs on its caller and its first helpers_ workers only, so
    // workers a wider region spawned never widen a narrower one.
    if (id >= helpers_) continue;
    // Claim parts one at a time. Every claim re-checks the generation under
    // the lock, so a worker that drained the queue can never run a stale
    // task pointer against the next region's counters. Parts are coarse
    // (one whole Lemma 2 chunk under RunOrdered), so the per-claim lock is
    // noise next to the work inside a part.
    while (generation_ == seen && next_ < parts_) {
      const std::size_t idx = next_++;
      const std::function<void(std::size_t)>* task = task_;
      lk.unlock();
      {
        // Wall-only span (workers never sample counters): one box per
        // claimed part on the worker's own track. The caller-inline path in
        // Run() is NOT instrumented — at threads=1 every part runs there,
        // and a per-part event flood would drown the phase spans.
        obs::Span span("par.task");
        RegionScope region;
        (*task)(idx);
      }
      lk.lock();
      if (++done_ == parts_) cv_done_.notify_all();
    }
  }
}

std::size_t ThreadPool::Run(std::size_t parts, std::size_t threads,
                            const std::function<void(std::size_t)>& task) {
  TRIENUM_CHECK(parts > 0);
  // One region at a time: a part that called Run again would overwrite the
  // region this pool is running.
  TRIENUM_CHECK_MSG(!tls_in_region, "nested fan-out inside a pool worker");
  // The caller participates as one executor, so at most parts - 1 helpers
  // can ever claim a part.
  const std::size_t helpers =
      threads > 0 ? (threads - 1 < parts - 1 ? threads - 1 : parts - 1) : 0;
  EnsureWorkers(helpers);
  std::unique_lock<std::mutex> lk(mu_);
  task_ = &task;
  helpers_ = helpers;
  parts_ = parts;
  next_ = 1;  // part 0 is the caller's
  done_ = 0;
  ++generation_;
  lk.unlock();
  cv_work_.notify_all();

  {
    RegionScope region;
    task(0);
  }
  // Then the caller claims whatever parts the workers have not.
  lk.lock();
  ++done_;
  const std::uint64_t gen = generation_;
  while (generation_ == gen && next_ < parts_) {
    const std::size_t idx = next_++;
    lk.unlock();
    {
      RegionScope region;
      task(idx);
    }
    lk.lock();
    ++done_;
  }
  cv_done_.wait(lk, [&] { return done_ == parts_; });
  task_ = nullptr;
  parts_ = 0;
  return helpers + 1;
}

}  // namespace trienum::par
