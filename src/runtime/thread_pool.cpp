#include "runtime/thread_pool.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "runtime/cancel.h"
#include "runtime/fault.h"

namespace statsize::runtime {

namespace {

/// Pool this thread is currently executing for (as a persistent worker, or
/// as the owner while it drains its own region's chunks). A parallel_for on
/// the same pool from such a thread runs inline: the owner cannot host a
/// second region (it is inside one), and a worker blocking on for_mutex_
/// while its owner waits for it to finish draining would deadlock. Inline
/// execution is value-identical — chunk outputs are index-keyed.
thread_local ThreadPool* t_active_pool = nullptr;

/// The checkpoint every chunk claim passes, on a worker or on the caller:
/// cooperative cancellation, then the pool.chunk fault site. Unarmed, both
/// checks are one load each.
void chunk_checkpoint() {
  poll_cancel();
  if (fault::hit(fault::kPoolChunk)) throw std::runtime_error("injected fault: pool.chunk");
}

}  // namespace

void run_inline(std::size_t n, std::size_t grain, RangeFn body) {
  if (grain == 0) grain = 1;
  for (std::size_t begin = 0; begin < n; begin += grain) {
    poll_cancel();
    body(begin, std::min(begin + grain, n));
  }
}

ThreadPool::ThreadPool(int num_threads) {
  const int workers = std::max(1, num_threads) - 1;
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { worker_main(static_cast<std::size_t>(i)); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::drain_region() {
  const std::size_t total = region_.total_chunks;
  for (;;) {
    const std::size_t chunk = region_.next.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= total) return;
    const std::size_t begin = chunk * region_.grain;
    const std::size_t end = std::min(begin + region_.grain, region_.n);
    try {
      // A deadline/cancel stops the loop within one chunk's overshoot,
      // reusing the exception machinery below (first thrower cancels the
      // remaining claims).
      chunk_checkpoint();
      (*region_.body)(begin, end);
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (!error_) error_ = std::current_exception();
      }
      // Exhaust the cursor so further claims stop. A chunk claimed between
      // the throw and this store still executes; the owner's wait for
      // running_ == 0 covers it like any other chunk.
      region_.next.store(total, std::memory_order_relaxed);
      return;
    }
  }
}

void ThreadPool::worker_main(std::size_t index) {
  t_active_pool = this;
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    if (index >= region_.claimers) continue;
    lock.unlock();
    // The owner's cancel chain, for this region only: its chunks poll the
    // owning job's token and deadline.
    detail::install_chain(region_.cancel);
    drain_region();
    detail::install_chain(nullptr);
    lock.lock();
    if (--running_ == 0) done_cv_.notify_one();
  }
}

void ThreadPool::parallel_for(std::size_t n, std::size_t grain, RangeFn body, int budget) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  if (workers_.empty() || n <= grain || t_active_pool == this) {
    run_inline(n, grain, body);
    return;
  }
  const std::unique_lock<std::mutex> owner(for_mutex_, std::try_to_lock);
  if (!owner.owns_lock()) {
    // Another thread's region holds the pool. Waiting would queue this job
    // behind that one (say a short Monte Carlo run behind a long one), so
    // the caller drains its own chunks instead, through the same checkpoint.
    for (std::size_t begin = 0; begin < n; begin += grain) {
      chunk_checkpoint();
      body(begin, std::min(begin + grain, n));
    }
    return;
  }
  const std::size_t claimers =
      budget < 1 ? workers_.size()
                 : std::min(workers_.size(), static_cast<std::size_t>(budget) - 1);
  {
    // The previous region ended with running_ == 0, so no worker is reading
    // the descriptor; mutex_ publishes the new one with the generation.
    const std::lock_guard<std::mutex> lock(mutex_);
    region_.n = n;
    region_.grain = grain;
    region_.total_chunks = (n + grain - 1) / grain;
    region_.claimers = claimers;
    region_.body = &body;
    region_.cancel = detail::active_chain();
    region_.next.store(0, std::memory_order_relaxed);
    error_ = nullptr;
    ++generation_;
    running_ = claimers;
  }
  if (claimers > 0) work_cv_.notify_all();

  // The owner is a full participant; its chunks run with the active-pool
  // marker set so a nested parallel_for from the body runs inline instead of
  // self-deadlocking on for_mutex_.
  ThreadPool* const prev_active = t_active_pool;
  t_active_pool = this;
  drain_region();  // never throws — failures land in error_
  t_active_pool = prev_active;

  std::exception_ptr err;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return running_ == 0; });
    region_.body = nullptr;
    region_.cancel = nullptr;
    err = std::exchange(error_, nullptr);
  }
  if (err) std::rethrow_exception(err);
}

}  // namespace statsize::runtime
