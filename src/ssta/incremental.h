// Incremental (ECO) statistical timing — edit→invalidate→repropagate instead
// of rebuild-everything-per-query (DESIGN.md §12).
//
// IncrementalEngine owns a mutable TimingView *copy* plus the cached per-node
// delay and arrival moments of the last analysis. apply_edits() accepts a
// batch of {node, new_speed | new_lib_consts} edits and repropagates only the
// affected cone:
//
//   1. Edits mark a small delay-dirty set — the edited gate itself plus its
//      gate fanins (a speed or c_in change shifts every driver's load through
//      the edited gate's pin cap; eq. 14).
//   2. Dirty delays are recomputed; gates whose delay actually changed
//      (bitwise) seed a level-bucketed worklist.
//   3. Levels are processed in ascending order: each queued gate refolds its
//      fanin arrivals (the same left Clark-max fold as run_ssta) and, iff the
//      resulting arrival differs bitwise from the cached one, enqueues its
//      fanouts. A bitwise-unchanged arrival terminates propagation — every
//      downstream read would see identical inputs, so downstream results are
//      already correct to the last bit.
//   4. The primary-output fold recomputes Tmax.
//
// Determinism: each gate's fold is a self-contained serial computation that
// reads strictly-lower-level arrivals and writes its own slot, so the order
// gates *within* one level bucket are evaluated in cannot change any value.
// The only cross-gate folds (fanin fold, output fold) run in fixed edge /
// mark_output order, exactly as run_ssta's. Hence every answer is
// bit-identical to a full run_ssta recompute on the edited view, at any
// --jobs, which is what tests and bench/eco_incremental hard-check. The
// worklist itself is serial: a dirty cone is the small case it exists for.

#pragma once

#include <cstddef>
#include <vector>

#include "netlist/circuit.h"
#include "netlist/timing_view.h"
#include "ssta/delay_model.h"
#include "ssta/ssta.h"
#include "stat/normal.h"

namespace statsize::ssta {

/// One ECO edit: retarget a gate's speed factor, or replace its delay-model
/// constants (a library swap / recharacterization of one cell instance).
struct TimingEdit {
  enum class Kind : unsigned char { kSpeed, kParams };

  netlist::NodeId node = netlist::kInvalidNode;
  Kind kind = Kind::kSpeed;
  double speed = 1.0;           ///< kSpeed payload
  netlist::NodeParams params;   ///< kParams payload

  static TimingEdit set_speed(netlist::NodeId node, double speed) {
    TimingEdit e;
    e.node = node;
    e.kind = Kind::kSpeed;
    e.speed = speed;
    return e;
  }

  static TimingEdit set_params(netlist::NodeId node, const netlist::NodeParams& params) {
    TimingEdit e;
    e.node = node;
    e.kind = Kind::kParams;
    e.params = params;
    return e;
  }
};

class IncrementalEngine {
 public:
  /// Copies `view` (TimingView is all-vector; the copy is independent of the
  /// source, which may keep serving other queries) and runs one full analysis
  /// at `initial_speed` to prime the caches. Throws std::invalid_argument on
  /// a size-mismatched speed vector or a non-finite / non-positive gate
  /// speed (eq. 14 divides by it).
  IncrementalEngine(const netlist::TimingView& view, std::vector<double> initial_speed,
                    SigmaModel sigma_model = {}, stat::NormalRV input_arrival = {});

  /// Applies the batch and repropagates the affected cone; returns the new
  /// circuit delay Tmax. Edits to non-gate or out-of-range nodes, non-finite
  /// values, or non-positive speeds throw std::invalid_argument before any
  /// state changes (the batch is validated up front). No-op edits (bitwise
  /// equal to current state) propagate nothing.
  stat::NormalRV apply_edits(const std::vector<TimingEdit>& edits);

  /// Rebuilds every delay and arrival from scratch (the construction path).
  /// apply_edits is pinned bit-identical to calling this instead.
  void full_recompute();

  const netlist::TimingView& view() const { return view_; }
  const std::vector<double>& speed() const { return speed_; }
  const SigmaModel& sigma_model() const { return sigma_model_; }

  stat::NormalRV tmax() const { return tmax_; }
  const std::vector<stat::NormalRV>& arrivals() const { return arrival_; }
  const std::vector<stat::NormalRV>& delays() const { return delay_; }

  /// The last analysis as a TimingReport (for compute_slacks etc.).
  TimingReport timing_report() const { return {arrival_, tmax_}; }

  // Work counters for the last apply_edits call — the observable "re-analysis
  // cost proportional to cone size" contract (bench/eco_incremental reports
  // them next to wall time).
  std::size_t last_delay_recomputes() const { return last_delay_recomputes_; }
  std::size_t last_arrival_recomputes() const { return last_arrival_recomputes_; }

 private:
  void enqueue(netlist::NodeId gate);
  void propagate();
  void refold_outputs();

  netlist::TimingView view_;  ///< owned, mutable copy
  SigmaModel sigma_model_;
  std::vector<double> speed_;
  std::vector<stat::NormalRV> input_arrivals_;  ///< topo input order

  std::vector<stat::NormalRV> delay_;    ///< per node; {0,0} for inputs
  std::vector<stat::NormalRV> arrival_;  ///< per node
  stat::NormalRV tmax_;

  // Worklist state (persistent to avoid per-call allocation).
  std::vector<netlist::NodeId> delay_dirty_;
  std::vector<unsigned char> delay_dirty_mask_;
  std::vector<std::vector<netlist::NodeId>> bucket_;  ///< per gate level
  std::vector<unsigned char> queued_mask_;

  std::size_t last_delay_recomputes_ = 0;
  std::size_t last_arrival_recomputes_ = 0;
};

}  // namespace statsize::ssta
