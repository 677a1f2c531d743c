// Persistent-executor thread pool with a blocking parallel_for.
//
// Design targets (see DESIGN.md §7):
//   * Determinism. parallel_for hands each index range to exactly one
//     participant and all outputs go to disjoint slots chosen by index, so a
//     result never depends on which worker ran which chunk. Reductions are
//     NOT performed here — callers combine per-block partials in block order,
//     which is what makes parallel results bit-identical at any thread count.
//   * Plain dispatch. Its one caller is Monte Carlo, whose chunks run for
//     milliseconds, so a region is published under one mutex and a sleeping
//     team is woken through a condition variable. No heap allocation, no
//     std::function: participants claim chunks off the region's atomic
//     cursor.
//   * Nested safety. A parallel_for issued from inside a region (from a
//     worker, or from the calling thread while it executes its own chunks)
//     runs inline — value-identical because chunk outputs are index-keyed —
//     so nesting can starve parallelism but never deadlock.
//   * Many callers. The pool hosts one region at a time. A caller that finds
//     it busy (another thread owns the region) does not wait: it runs its
//     own chunks on itself, passing the same per-chunk checkpoint, so two
//     jobs on two threads share the pool without blocking each other.
//   * Per-region context. The region carries its owner's cancel chain
//     (cancel.h) and a team budget: workers install the owner's chain while
//     they drain, and only the first `budget - 1` workers claim chunks.
//   * Exceptions. The first exception thrown by any chunk is captured, the
//     chunk cursor is exhausted so further claims stop, and the exception is
//     rethrown on the calling thread once the region is over.
//
// Region protocol (one mutex, two condition variables):
//   1. The owner takes for_mutex_ (try_lock; see "Many callers"). Under
//      mutex_ it fills the single reusable region descriptor, bumps
//      generation_, sets running_ to the number of claiming workers, and
//      wakes the team on work_cv_.
//   2. A worker waits on work_cv_ for a generation it has not seen. If its
//      index is inside the region's budget it drains chunks off the cursor,
//      then decrements running_ under mutex_; the last one out signals
//      done_cv_. The owner drains chunks too.
//   3. The owner waits on done_cv_ for running_ == 0. Every claimer is
//      counted in running_, so none can miss a generation or still be
//      reading the descriptor when the next region reuses it.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "runtime/cancel.h"

namespace statsize::runtime {

/// Non-owning reference to a callable `void(std::size_t begin, std::size_t
/// end)` — avoids a std::function allocation per parallel_for call. The
/// referenced callable must outlive the call (parallel_for blocks, so stack
/// lambdas are safe).
class RangeFn {
 public:
  template <class F, class = std::enable_if_t<!std::is_same_v<std::decay_t<F>, RangeFn>>>
  RangeFn(const F& f)  // NOLINT(google-explicit-constructor): by-design implicit
      : obj_(&f), call_([](const void* o, std::size_t b, std::size_t e) {
          (*static_cast<const F*>(o))(b, e);
        }) {}

  void operator()(std::size_t begin, std::size_t end) const { call_(obj_, begin, end); }

 private:
  const void* obj_;
  void (*call_)(const void*, std::size_t, std::size_t);
};

/// Runs body over [0, n) on the calling thread, one grain-sized call per
/// chunk with a poll_cancel() before each, so a cancel lands within one
/// chunk as it does on the pool. The inline path of every parallel_for.
void run_inline(std::size_t n, std::size_t grain, RangeFn body);

class ThreadPool {
 public:
  /// Spawns `num_threads - 1` workers: the thread calling parallel_for is
  /// always the remaining participant. num_threads < 1 is clamped to 1 (no
  /// workers; everything runs inline on the caller).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs body(b, e) over subranges that exactly tile [0, n), blocking until
  /// all of it is done. Chunks are `grain` indices (last one ragged). Chunk
  /// claiming is dynamic but the work done per index is fixed, so any writes
  /// keyed by index land identically at every thread count. At most `budget`
  /// threads, the caller included, claim chunks (0 = the whole pool). When
  /// another thread owns the pool's region, every chunk runs on the caller.
  void parallel_for(std::size_t n, std::size_t grain, RangeFn body, int budget = 0);

 private:
  /// The single reusable parallel_for descriptor. Plain fields are written
  /// under mutex_ before the generation bump and stay fixed until running_
  /// drops to 0; only the cursor is contended while a region runs.
  struct Region {
    std::size_t n = 0;
    std::size_t grain = 1;
    std::size_t total_chunks = 0;
    std::size_t claimers = 0;  ///< workers with index < claimers claim chunks
    const RangeFn* body = nullptr;
    const detail::CancelState* cancel = nullptr;  ///< the owner's chain head
    alignas(64) std::atomic<std::size_t> next{0};  // chunk cursor, own line
  };

  void worker_main(std::size_t index);
  void drain_region();

  std::mutex for_mutex_;  // held by the region's owner; busy callers run inline

  // Guarded by mutex_. The owner writes region_ under it; claimers then read
  // region_ without it until running_ drops to 0 (the cursor is atomic).
  std::mutex mutex_;
  Region region_;
  std::condition_variable work_cv_;  // a new generation, or stop_
  std::condition_variable done_cv_;  // running_ reached 0
  std::uint64_t generation_ = 0;     // regions published so far
  std::size_t running_ = 0;          // claiming workers still draining
  std::exception_ptr error_;         // first failure of the current region
  bool stop_ = false;

  std::vector<std::thread> workers_;  // last: they use every member above
};

}  // namespace statsize::runtime
