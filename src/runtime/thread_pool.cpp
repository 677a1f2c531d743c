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
/// while its own team waits for it at the barrier would deadlock. Inline
/// execution is value-identical — chunk outputs are index-keyed.
thread_local ThreadPool* t_active_pool = nullptr;

/// Bounded spin before blocking. Yield-based so an oversubscribed host
/// (including the 1-core case) hands the core to whoever has work; on a
/// multicore box back-to-back regions are caught mid-spin and never pay the
/// sleep/wake round trip.
constexpr int kSpinIterations = 256;

/// The checkpoint every chunk claim passes, on a worker or on the caller:
/// cooperative cancellation, then the pool.chunk fault site. Unarmed, both
/// checks are one load each.
void chunk_checkpoint() {
  poll_cancel();
  if (fault::hit(fault::kPoolChunk)) throw std::runtime_error("injected fault: pool.chunk");
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  const int workers = std::max(1, num_threads) - 1;
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { worker_main(static_cast<std::size_t>(i)); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_seq_cst);
  {
    const std::lock_guard<std::mutex> lock(sleep_mutex_);
    sleep_cv_.notify_all();
  }
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::wake_sleepers() {
  // Dekker handshake, publisher side: the work signal (epoch_ or stop_) was
  // stored seq_cst before this seq_cst load. A worker raises sleepers_
  // (seq_cst) before re-checking those signals under sleep_mutex_, so
  // either it sees the new signal and never sleeps, or this load sees its
  // raised count and the notify below — serialized against the worker's
  // predicate check by sleep_mutex_ — lands. No lost wakeup either way.
  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    const std::lock_guard<std::mutex> lock(sleep_mutex_);
    sleep_cv_.notify_all();
  }
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
        const std::lock_guard<std::mutex> lock(error_mutex_);
        if (!error_) error_ = std::current_exception();
      }
      // Exhaust the cursor so further claims stop. A chunk claimed between
      // the throw and this store still executes (same best-effort window the
      // previous exchange-based design had); completion needs no chunk
      // accounting — the end-of-region barrier already proves every
      // participant is done claiming.
      region_.next.store(total, std::memory_order_relaxed);
      return;
    }
  }
}

void ThreadPool::worker_main(std::size_t index) {
  t_active_pool = this;
  std::uint64_t seen = 0;
  for (;;) {
    // Work signals, checked hottest-first.
    const std::uint64_t e = epoch_.load(std::memory_order_seq_cst);
    if (e != seen) {
      seen = e;
      if (index < region_.claimers) {
        // The owner's cancel chain, for this region only: its chunks poll
        // the owning job's token and deadline.
        detail::install_chain(region_.cancel);
        drain_region();
        detail::install_chain(nullptr);
      }
      // End-of-region barrier: the last arriver wakes the owner. Always
      // lock+notify — the owner may have just started its blocking wait,
      // and locking owner_mutex_ orders this notify after its predicate
      // check. Once per region per team, so the cost is noise.
      if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == workers_.size()) {
        const std::lock_guard<std::mutex> lock(owner_mutex_);
        owner_cv_.notify_one();
      }
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) return;

    // Idle: spin briefly (catches back-to-back regions), then block.
    bool signaled = false;
    for (int spin = 0; spin < kSpinIterations; ++spin) {
      if (epoch_.load(std::memory_order_relaxed) != seen ||
          stop_.load(std::memory_order_relaxed)) {
        signaled = true;
        break;
      }
      std::this_thread::yield();
    }
    if (signaled) continue;

    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    {
      std::unique_lock<std::mutex> lock(sleep_mutex_);
      sleep_cv_.wait(lock, [&] {
        return epoch_.load(std::memory_order_seq_cst) != seen ||
               stop_.load(std::memory_order_acquire);
      });
    }
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
  }
}

void ThreadPool::parallel_for(std::size_t n, std::size_t grain, RangeFn body, int budget) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  if (workers_.empty() || n <= grain || t_active_pool == this) {
    poll_cancel();  // the single-chunk equivalent of the per-chunk checkpoint
    body(0, n);
    return;
  }
  const std::unique_lock<std::mutex> owner(for_mutex_, std::try_to_lock);
  if (!owner.owns_lock()) {
    // Another thread's region holds the pool. Waiting would queue this job
    // behind that one (say a short sweep behind a long Monte Carlo run), so
    // the caller drains its own chunks instead, through the same checkpoint.
    for (std::size_t begin = 0; begin < n; begin += grain) {
      chunk_checkpoint();
      body(begin, std::min(begin + grain, n));
    }
    return;
  }
  // Fill the descriptor. Safe without atomics: the previous region's end
  // barrier proved every worker is out of drain_region, and the epoch bump
  // below releases these writes to the team.
  region_.n = n;
  region_.grain = grain;
  region_.total_chunks = (n + grain - 1) / grain;
  region_.claimers = budget < 1 ? workers_.size()
                                : std::min(workers_.size(), static_cast<std::size_t>(budget) - 1);
  region_.body = &body;
  region_.cancel = detail::active_chain();
  region_.next.store(0, std::memory_order_relaxed);
  error_ = nullptr;

  epoch_.fetch_add(1, std::memory_order_seq_cst);
  wake_sleepers();

  // The owner is a full participant; its chunks run with the active-pool
  // marker set so a nested parallel_for from the body runs inline instead of
  // self-deadlocking on for_mutex_.
  ThreadPool* const prev_active = t_active_pool;
  t_active_pool = this;
  drain_region();  // never throws — failures land in error_
  t_active_pool = prev_active;

  // Full-team end barrier: every worker checks in exactly once per epoch,
  // even if it claimed no chunks. Spin first (workers finish while the owner
  // drains its last chunk in the common case), then block.
  const std::size_t team = workers_.size();
  bool done = arrived_.load(std::memory_order_acquire) == team;
  for (int spin = 0; !done && spin < kSpinIterations; ++spin) {
    std::this_thread::yield();
    done = arrived_.load(std::memory_order_acquire) == team;
  }
  if (!done) {
    std::unique_lock<std::mutex> lock(owner_mutex_);
    owner_cv_.wait(lock,
                   [&] { return arrived_.load(std::memory_order_acquire) == team; });
  }
  arrived_.store(0, std::memory_order_relaxed);
  region_.body = nullptr;
  region_.cancel = nullptr;

  if (error_) {
    const std::exception_ptr err = std::exchange(error_, nullptr);
    std::rethrow_exception(err);
  }
}

}  // namespace statsize::runtime
