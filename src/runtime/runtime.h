// Process-global execution runtime: one shared ThreadPool plus the
// deterministic parallel_for that Monte Carlo's trial chunks go through. A
// single knob sets the thread count everywhere:
//
//   * runtime::set_threads(n)      — programmatic (CLI --jobs)
//   * STATSIZE_JOBS=<n>            — environment default
//   * std::thread::hardware_concurrency() otherwise
//
// A thread may cap its own share with a ThreadBudget (a served job's,
// DESIGN.md §11): its parallel_for calls then use at most that many threads,
// caller included. The cap is thread-local and never changes the pool.
//
// Where the pool is used (DESIGN.md §7): Monte Carlo trial chunks
// (run_monte_carlo and monte_carlo_criticality), and nothing else. The SSTA
// and STA sweeps, the reduced-space tape and its adjoint, hess_vec, the
// augmented-Lagrangian and Problem evaluations and the dirty-cone worklist
// are serial loops; DESIGN.md §7 records what that measured.
//
// Determinism contract: a parallel_for body writes only index-keyed slots,
// and any cross-item fold runs afterwards on the calling thread in a fixed
// order, so numerical results are bit-identical for --jobs 1, --jobs N, and
// the serial fallback.

#pragma once

#include <cstddef>
#include <string>

#include "runtime/cancel.h"
#include "runtime/thread_pool.h"

namespace statsize::runtime {

/// Upper bound on a thread-count setting. STATSIZE_JOBS values above it are
/// treated as malformed (fall back to hardware concurrency with a warning);
/// programmatic set_threads clamps into [1, kMaxJobs].
inline constexpr int kMaxJobs = 1024;

/// Validates a STATSIZE_JOBS-style string: a whole-string positive integer in
/// [1, kMaxJobs]. Returns the parsed count, or `fallback` when the value is
/// non-numeric, has trailing junk, is zero/negative, or is absurdly large —
/// filling `warning` (if non-null) with a named diagnostic in that case.
/// Exposed for tests; the env resolution and set_threads both route through
/// it so a bad value can never produce UB or a 0-thread pool.
int resolve_jobs_value(const char* value, int fallback, std::string* warning = nullptr);

/// Current global thread-count setting (>= 1). First use reads STATSIZE_JOBS
/// (validated via resolve_jobs_value; malformed values warn on stderr),
/// falling back to hardware concurrency. Later calls are one atomic load.
int threads();

/// Overrides the global thread count (clamped to [1, kMaxJobs]) and drops the old
/// pool; the next parallel call lazily builds a pool of the new size. Not
/// safe to call concurrently with in-flight parallel work.
void set_threads(int n);

/// Threads the hardware offers (>= 1), independent of the current setting.
int hardware_threads();

/// The shared pool at the current thread-count setting (lazily constructed).
ThreadPool& global_pool();

/// RAII cap on the threads the calling thread's parallel_for calls use, the
/// caller included: n >= 1 caps, 0 leaves the process setting. Restores the
/// previous cap on destruction.
class ThreadBudget {
 public:
  explicit ThreadBudget(int n);
  ~ThreadBudget();

  ThreadBudget(const ThreadBudget&) = delete;
  ThreadBudget& operator=(const ThreadBudget&) = delete;

 private:
  int saved_;
};

/// Threads the calling thread's parallel_for calls may use: threads(),
/// lowered by an installed ThreadBudget (>= 1).
int thread_budget();

/// parallel_for over [0, n) on the global pool; runs inline when the calling
/// thread's budget is 1 thread or the range fits one grain. body(b, e) must
/// only write to slots keyed by the index — the scheduler decides nothing
/// about values.
void parallel_for(std::size_t n, std::size_t grain, RangeFn body);

}  // namespace statsize::runtime
