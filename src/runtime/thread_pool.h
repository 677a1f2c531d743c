// Persistent-executor thread pool with a blocking parallel_for.
//
// Design targets (see DESIGN.md §7):
//   * Determinism. parallel_for hands each index range to exactly one
//     participant and all outputs go to disjoint slots chosen by index, so a
//     result never depends on which worker ran which chunk. Reductions are
//     NOT performed here — callers combine per-block partials in block order
//     (runtime.h provides the helpers), which is what makes parallel results
//     bit-identical at any thread count.
//   * Cheap dispatch. Workers are persistent and park on an epoch counter
//     (a sense-reversing barrier generalized to a 64-bit epoch). Publishing
//     a parallel region is: write the region descriptor, bump the epoch,
//     wake any sleepers. No heap allocation, no std::function, no per-helper
//     queue traffic — workers claim chunks straight off the region's atomic
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
//     rethrown on the calling thread after the end-of-region barrier.
//
// Region protocol (full-team epoch barrier):
//   1. The owner takes for_mutex_ (try_lock; see "Many callers"), fills the
//      single reusable region descriptor, and bumps epoch_ (seq_cst release
//      of the descriptor).
//   2. Every worker observes the epoch change (spinning briefly, then
//      sleeping on sleep_cv_), drains chunks off the cursor if its index is
//      inside the region's budget, and arrives at the end barrier (arrived_)
//      either way. The owner drains chunks too.
//   3. The owner waits until arrived_ == workers, then resets the barrier.
//      Because the whole team checks in every epoch, no stale worker can
//      ever touch a reused descriptor — which is what makes the single
//      descriptor safe without per-call allocation or generation tags.
// The idle pool costs nothing: workers spin a short bounded budget and then
// block on a condition variable; a seq_cst Dekker handshake between the
// owner's (bump epoch, read sleepers_) and the workers' (raise sleepers_,
// re-check epoch under the sleep mutex) makes lost wakeups impossible.

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
  /// The single reusable parallel_for descriptor. Plain fields are published
  /// by the epoch bump and quiesced by the end barrier; only the cursor is
  /// contended while a region runs.
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
  void wake_sleepers();

  std::vector<std::thread> workers_;

  // Region state (owner-written between barriers, worker-read during one).
  std::mutex for_mutex_;  // held by the region's owner; busy callers run inline
  Region region_;
  std::mutex error_mutex_;
  std::exception_ptr error_;  // first failure of the current region

  // Epoch barrier. epoch_ publishes regions; arrived_ collects the team at
  // the end of one. Separate cache lines: epoch_ is read in every spin
  // iteration while arrived_ is written once per worker per region.
  alignas(64) std::atomic<std::uint64_t> epoch_{0};
  alignas(64) std::atomic<std::size_t> arrived_{0};
  std::mutex owner_mutex_;
  std::condition_variable owner_cv_;

  // Sleep machinery: workers raise sleepers_ before blocking; publishers
  // (epoch bump, stop) read it to decide whether a wake is needed.
  alignas(64) std::atomic<std::size_t> sleepers_{0};
  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  std::atomic<bool> stop_{false};
};

}  // namespace statsize::runtime
