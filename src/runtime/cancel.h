// Cooperative cancellation and wall-clock deadlines for the parallel runtime.
//
// A solve that must terminate within a time budget (CLI --time-limit) or on
// external request installs a CancelScope; every long-running loop in the
// system — ThreadPool::parallel_for chunk claims, runtime::parallel_for
// entry (and therefore every level of the pooled SSTA sweep), the TRON
// trust-region and CG inner loops, projected L-BFGS iterations, and the
// augmented-Lagrangian outer loop — polls the active scope at its natural boundary and throws
// OperationCancelled when the token is cancelled or the deadline has passed.
//
// Contract (DESIGN.md §9):
//  * Cooperative, never preemptive: work stops at the next poll, so a
//    deadline overshoots by at most one chunk / one inner iteration.
//  * Determinism is never poisoned: a poll either does nothing or throws.
//    Partial results of a cancelled sweep are discarded by the unwinding —
//    no cancelled run ever contributes values to a returned iterate. With no
//    scope installed the poll is one load of a null thread-local pointer and
//    a branch, so uncancelled runs are bit-identical to pre-resilience runs.
//  * Scopes nest: an inner scope chains to the outer one, and a poll checks
//    the whole chain, so an outer deadline still fires inside a nested
//    sub-solve.
//  * Scopes are per thread. Each thread has its own chain, so two jobs on
//    two threads never see each other's token or deadline. A pool region
//    carries its owner's chain head: the workers that drain it install that
//    head for the region and clear it afterwards, so pool chunks poll the
//    deadline and token of the job that owns them, and no other job's.

#pragma once

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>

namespace statsize::runtime {

/// A wall-clock budget on std::chrono::steady_clock. Default-constructed
/// deadlines never expire.
class Deadline {
 public:
  Deadline() = default;  ///< unlimited

  /// Expires `seconds` from now; seconds <= 0 is already expired.
  static Deadline after_seconds(double seconds) {
    Deadline d;
    d.armed_ = true;
    d.at_ = std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(seconds));
    return d;
  }

  static Deadline never() { return Deadline(); }

  bool unlimited() const { return !armed_; }

  bool expired() const { return armed_ && std::chrono::steady_clock::now() >= at_; }

  /// Seconds until expiry (negative once expired); +infinity when unlimited.
  double remaining_seconds() const;

 private:
  bool armed_ = false;
  std::chrono::steady_clock::time_point at_{};
};

/// Sticky cancel flag, safe to set from any thread (e.g. a signal-handling
/// or watchdog thread) while solver threads poll it.
class CancellationToken {
 public:
  void request_cancel() { flag_.store(true, std::memory_order_relaxed); }
  bool cancel_requested() const { return flag_.load(std::memory_order_relaxed); }
  void reset() { flag_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> flag_{false};
};

enum class CancelReason {
  kToken,     ///< CancellationToken::request_cancel()
  kDeadline,  ///< Deadline expired
};

/// Thrown by poll_cancel() (and by fault-injected deadline sites). Solver
/// layers catch it to degrade gracefully to their best checkpoint; it should
/// never escape a Sizer / solve_augmented_lagrangian call.
class OperationCancelled : public std::runtime_error {
 public:
  OperationCancelled(CancelReason reason, const std::string& what)
      : std::runtime_error(what), reason_(reason) {}

  CancelReason reason() const { return reason_; }

 private:
  CancelReason reason_;
};

namespace detail {
/// One link of the active-scope chain (implementation detail of CancelScope).
struct CancelState {
  const CancellationToken* token = nullptr;
  Deadline deadline;
  const CancelState* prev = nullptr;
};

/// The calling thread's chain head (null when no scope is installed). The
/// pool reads it when it publishes a region.
const CancelState* active_chain();

/// Makes `head` the calling thread's chain and returns the previous head.
/// The pool's workers install the owner's head while they drain a region.
const CancelState* install_chain(const CancelState* head);
}  // namespace detail

/// RAII installation of (token, deadline) as the calling thread's active
/// cancel scope. Nested construction chains to the previously active scope;
/// the destructor restores it. A scope must be destroyed on the thread that
/// built it, in reverse order of construction.
class CancelScope {
 public:
  CancelScope(const CancellationToken* token, Deadline deadline);
  explicit CancelScope(Deadline deadline) : CancelScope(nullptr, deadline) {}
  ~CancelScope();

  CancelScope(const CancelScope&) = delete;
  CancelScope& operator=(const CancelScope&) = delete;

 private:
  detail::CancelState state_;
};

/// True when any scope in the calling thread's chain is cancelled or past its
/// deadline. With no scope installed this is one thread-local load.
bool cancel_requested();

/// Throws OperationCancelled when cancel_requested() — the cooperative
/// checkpoint every long loop calls at its chunk/iteration boundary.
void poll_cancel();

}  // namespace statsize::runtime
