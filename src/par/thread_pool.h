// Fixed-size host thread pool and the ordered pipeline built on it.
//
// The pool parallelizes host compute without moving an I/O charge. A region
// has one shape: part 0 runs on the calling thread while pool workers claim
// parts 1, 2, ... in index order. RunOrdered gives part 0 its commit loop
// and every other part one task's compute, a whole Lemma 2 pivot chunk
// (core/pivot_enum.h): a worker runs counted code against an em recording
// view and hands back a charge log, and the caller replays the logs into
// the real cache strictly in task order. So the caller issues the serial
// charge sequence, which is why IoStats are invariant in the thread count
// by construction (and pinned by tests/test_parallel.cc). The thread count
// is the caller's argument, taken from its em::QuerySession.
//
// Shape: one process-wide pool (Global()), lazily spawning up to N-1
// workers the first time a region actually fans out; the caller
// participates as worker N. One region runs at a time; nested fan-out is a
// library bug and is rejected with a TRIENUM_CHECK.
#ifndef TRIENUM_PAR_THREAD_POOL_H_
#define TRIENUM_PAR_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"

namespace trienum::par {

/// \brief The process-wide worker pool.
class ThreadPool {
 public:
  /// The singleton pool. Workers are not spawned until the first Run that
  /// needs them (lazy spawn), so serial processes never pay for threads.
  static ThreadPool& Global();

  /// Executes task(i) once for every i in [0, parts) on at most `threads`
  /// threads and blocks until every part has finished. Part 0 runs on the
  /// caller; meanwhile up to threads - 1 workers claim parts 1, 2, ... in
  /// index order, and the caller claims whatever they left once part 0
  /// returns. Any part but 0 may run on a worker, so only part 0 may charge
  /// the em:: accounting layer. `task` must not throw. Calling Run from
  /// inside a part (nested fan-out) is rejected with a TRIENUM_CHECK.
  /// Returns the region's width: the caller plus the helpers allowed to
  /// claim a part, so at most min(threads, parts).
  std::size_t Run(std::size_t parts, std::size_t threads,
                  const std::function<void(std::size_t)>& task);

  /// Workers spawned so far (test / telemetry hook; grows lazily, never
  /// shrinks until process exit).
  std::size_t spawned_workers() const;

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

 private:
  ThreadPool() = default;
  ~ThreadPool();

  void EnsureWorkers(std::size_t want);
  void WorkerLoop(std::size_t id);

  mutable std::mutex mu_;
  std::condition_variable cv_work_;  // workers: a new generation is posted
  std::condition_variable cv_done_;  // caller: all parts of the region done
  std::vector<std::thread> workers_;
  const std::function<void(std::size_t)>* task_ = nullptr;
  std::size_t helpers_ = 0;  // workers allowed to claim parts of the region
  std::size_t parts_ = 0;
  std::size_t next_ = 0;  // next unclaimed part
  std::size_t done_ = 0;  // completed parts
  std::uint64_t generation_ = 0;
  bool shutdown_ = false;
};

/// Number of slots RunOrdered uses at `threads`, which is also how many
/// tasks may be computed but not yet committed: twice the thread count, so
/// workers stay busy while the caller commits; one when serial.
inline std::size_t OrderedWindow(std::size_t threads) {
  return threads <= 1 ? 1 : 2 * threads;
}

/// \brief Ordered pipeline over tasks [0, n): compute(i, slot) runs on pool
/// workers, commit(i, slot) on the calling thread strictly in order i = 0,
/// 1, ..., n-1.
///
/// Task i uses slot i % OrderedWindow(threads), and its compute starts only
/// after the task before it in that slot committed: a slot is never shared,
/// its buffers can be recycled from task to task, and host memory grows by
/// the window, not by n. At threads <= 1 both run inline on the caller.
/// An exception from compute(i) is held until task i's commit point;
/// there, or when a commit throws, no further task starts, the tasks in
/// flight drain, and the exception is rethrown on the caller. Returns the
/// threads the run used: its region's width, or 1 when it ran inline.
template <typename Compute, typename Commit>
std::size_t RunOrdered(std::size_t n, std::size_t threads, Compute&& compute,
                       Commit&& commit) {
  if (threads <= 1 || n == 0) {
    for (std::size_t i = 0; i < n; ++i) {
      compute(i, std::size_t{0});
      commit(i, std::size_t{0});
    }
    return 1;
  }
  const std::size_t window = OrderedWindow(threads);
  constexpr std::size_t kNone = ~std::size_t{0};
  std::mutex mu;
  std::condition_variable cv_computed;   // the caller: a task is computed
  std::condition_variable cv_committed;  // workers: a slot came free
  std::vector<std::size_t> computed(window, kNone);  // per slot: last task
  std::vector<std::exception_ptr> errors(window);    // per slot
  std::size_t committed = 0;
  bool stop = false;
  std::exception_ptr failure;  // caller only
  // Part 0 is the caller's commit loop; part i + 1 computes task i. Workers
  // claim parts in index order, so tasks start in order too.
  const std::function<void(std::size_t)> part = [&](std::size_t p) {
    if (p == 0) {
      for (std::size_t i = 0; i < n && !failure; ++i) {
        const std::size_t s = i % window;
        {
          std::unique_lock<std::mutex> lk(mu);
          cv_computed.wait(lk, [&] { return computed[s] == i; });
          failure = std::move(errors[s]);
        }
        if (!failure) {
          try {
            commit(i, s);
          } catch (...) {
            failure = std::current_exception();
          }
        }
        {
          std::lock_guard<std::mutex> lk(mu);
          if (failure) {
            stop = true;
          } else {
            committed = i + 1;
          }
        }
        cv_committed.notify_all();
      }
      return;
    }
    const std::size_t i = p - 1;
    const std::size_t s = i % window;
    {
      std::unique_lock<std::mutex> lk(mu);
      cv_committed.wait(lk, [&] { return stop || i < committed + window; });
      if (stop) return;
    }
    std::exception_ptr err;
    try {
      compute(i, s);
    } catch (...) {
      err = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lk(mu);
      computed[s] = i;
      errors[s] = std::move(err);
    }
    cv_computed.notify_one();
  };
  const std::size_t width = ThreadPool::Global().Run(n + 1, threads, part);
  if (failure) std::rethrow_exception(failure);
  return width;
}

}  // namespace trienum::par

#endif  // TRIENUM_PAR_THREAD_POOL_H_
