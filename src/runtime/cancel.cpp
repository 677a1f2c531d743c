#include "runtime/cancel.h"

#include <limits>
#include <utility>

namespace statsize::runtime {

namespace {

/// Head of this thread's scope chain. A pool worker holds the head of the
/// region it drains; the region's publication (the pool epoch bump) orders
/// the owner's chain nodes before the worker reads them, and the owner keeps
/// them alive by blocking until the region ends.
thread_local const detail::CancelState* t_active = nullptr;

/// Walks the chain; returns the reason of the first tripped scope.
bool chain_tripped(const detail::CancelState* head, CancelReason* reason) {
  for (const detail::CancelState* s = head; s != nullptr; s = s->prev) {
    if (s->token != nullptr && s->token->cancel_requested()) {
      *reason = CancelReason::kToken;
      return true;
    }
    if (s->deadline.expired()) {
      *reason = CancelReason::kDeadline;
      return true;
    }
  }
  return false;
}

}  // namespace

double Deadline::remaining_seconds() const {
  if (!armed_) return std::numeric_limits<double>::infinity();
  return std::chrono::duration<double>(at_ - std::chrono::steady_clock::now()).count();
}

const detail::CancelState* detail::active_chain() { return t_active; }

const detail::CancelState* detail::install_chain(const CancelState* head) {
  return std::exchange(t_active, head);
}

CancelScope::CancelScope(const CancellationToken* token, Deadline deadline) {
  state_.token = token;
  state_.deadline = deadline;
  state_.prev = t_active;
  t_active = &state_;
}

CancelScope::~CancelScope() { t_active = state_.prev; }

bool cancel_requested() {
  const detail::CancelState* head = t_active;
  if (head == nullptr) return false;  // the common, overhead-free case
  CancelReason reason;
  return chain_tripped(head, &reason);
}

void poll_cancel() {
  const detail::CancelState* head = t_active;
  if (head == nullptr) return;
  CancelReason reason;
  if (!chain_tripped(head, &reason)) return;
  if (reason == CancelReason::kDeadline) {
    throw OperationCancelled(CancelReason::kDeadline, "deadline expired");
  }
  throw OperationCancelled(CancelReason::kToken, "cancellation requested");
}

}  // namespace statsize::runtime
