// Keyed cache of finalized circuits — the artifact `statsize serve` amortizes
// across requests. An upload parses + finalizes once (BLIF/Verilog text →
// Circuit + compiled TimingView); every subsequent job against the same
// content hash reuses the entry with a shared-lock lookup.
//
// A PATCH /v1/circuits/<key> creates a *derived* entry (DESIGN.md §12): it
// shares the base entry's Circuit (and its parse work) but owns an edited
// TimingView copy plus the per-gate speed overrides; its key is the base key
// extended with a content hash of the edits, so identical edit sets dedupe
// exactly like identical uploads. Every engine takes a TimingView (names
// included), so a derived entry serves every job type an upload does —
// full-space sizing too.
//
// Concurrency contract:
//  * find() takes a shared lock and bumps an atomic recency stamp — readers
//    never serialize on each other.
//  * insert() takes the exclusive lock, evicts the least-recently-used entry
//    when at capacity, and is idempotent on key collision (the existing
//    entry wins, so two concurrent uploads of the same text agree).
//  * Entries are handed out as shared_ptr<const CachedCircuit>: eviction
//    only drops the cache's reference, so a queued/running job keeps its
//    circuit alive regardless of cache churn. A derived entry keeps its base
//    alive the same way (the `base` edge).

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/sizer.h"
#include "netlist/circuit.h"
#include "netlist/timing_view.h"

namespace statsize::serve {

/// One finalized upload (or a PATCH-derived edit of one). Immutable after
/// construction apart from the recency stamp and the sizing warm-start memo.
struct CachedCircuit {
  std::string key;     ///< "c-<fnv1a64 hex>"; derived: "<base>+e-<hex>"
  std::string name;    ///< client-supplied label (may be empty)
  std::string format;  ///< "blif" | "verilog"
  std::shared_ptr<const netlist::Circuit> circuit;

  // Metadata captured at upload so GET responses never re-walk the netlist.
  int num_gates = 0;
  int num_inputs = 0;
  int num_outputs = 0;
  int depth = 0;
  int num_levels = 0;

  // ---- Derived (PATCH-created) entries only ----
  /// The entry this one was patched from; keeps it (and its warm-start memo)
  /// alive across cache eviction. Null for plain uploads.
  std::shared_ptr<const CachedCircuit> base;
  /// Edited TimingView copy (delay-model constants already applied via
  /// update_node_params; it shares the base view's name table). Null for
  /// plain uploads — jobs fall back to the shared circuit's view.
  std::shared_ptr<const netlist::TimingView> patched_view;
  /// Per-gate speed-factor overrides, applied on top of the uniform
  /// `params.speed` fill for analysis jobs (first-edit order; later PATCHes
  /// of the same node appear later and win). Speed is a per-query quantity,
  /// not TimingView state, so the overrides travel with the entry.
  std::vector<std::pair<netlist::NodeId, double>> speed_edits;
  std::size_t num_edits = 0;  ///< total edit records folded into this entry

  /// The view every job on this entry computes against, whatever its type.
  const netlist::TimingView& timing_view() const {
    return patched_view ? *patched_view : circuit->view();
  }

  /// Last successful reduced-space sizing's carry-over state on this entry —
  /// what a derived entry's size job warm-starts from (DESIGN.md §12).
  void store_warm(std::shared_ptr<const core::SizingWarmStart> w) const {
    std::lock_guard<std::mutex> lock(warm_mu_);
    warm_ = std::move(w);
  }
  std::shared_ptr<const core::SizingWarmStart> last_warm() const {
    std::lock_guard<std::mutex> lock(warm_mu_);
    return warm_;
  }
  /// This entry's memo, else the nearest ancestor's (a freshly PATCHed entry
  /// has no solve of its own yet — the parent's multipliers are the warm
  /// start the ECO resize wants). Null when nothing along the chain sized.
  std::shared_ptr<const core::SizingWarmStart> resolve_warm() const {
    for (const CachedCircuit* e = this; e != nullptr; e = e->base.get()) {
      if (auto w = e->last_warm()) return w;
    }
    return nullptr;
  }

  mutable std::atomic<std::uint64_t> last_used{0};

 private:
  mutable std::mutex warm_mu_;
  mutable std::shared_ptr<const core::SizingWarmStart> warm_;
};

/// FNV-1a 64-bit over `text` — the content-hash half of a cache key.
std::uint64_t fnv1a64(std::string_view text);

/// "c-" + 16 lowercase hex digits of fnv1a64(format + '\n' + text).
std::string circuit_key(std::string_view format, std::string_view text);

class CircuitCache {
 public:
  /// `capacity` >= 1 entries.
  explicit CircuitCache(std::size_t capacity);

  /// Shared-lock lookup; bumps recency. nullptr on miss.
  std::shared_ptr<const CachedCircuit> find(const std::string& key);

  struct InsertResult {
    std::shared_ptr<const CachedCircuit> entry;  ///< the cached entry (existing on collision)
    bool existed = false;                        ///< key was already cached
    std::size_t evicted = 0;                     ///< entries dropped to make room
  };

  /// Exclusive-lock insert-or-get.
  InsertResult insert(std::shared_ptr<const CachedCircuit> entry);

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

  /// Snapshot of the cached entries (for /v1/circuits listing), most
  /// recently used first.
  std::vector<std::shared_ptr<const CachedCircuit>> snapshot() const;

 private:
  const std::size_t capacity_;
  mutable std::shared_mutex mu_;
  std::map<std::string, std::shared_ptr<const CachedCircuit>> entries_;
  std::atomic<std::uint64_t> clock_{0};  ///< recency stamps (monotonic, not wall time)
};

}  // namespace statsize::serve
