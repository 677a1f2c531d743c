// Incremental (ECO) statistical timing — edit→invalidate→repropagate instead
// of rebuild-everything-per-query (DESIGN.md §12).
//
// IncrementalEngine owns a mutable TimingView *copy* plus the cached per-node
// delay and arrival moments of the last analysis. apply_edits() takes a batch
// of {node, new_speed | new_lib_consts} edits, marks the edited gates and
// their gate fanins delay-dirty (a speed or c_in change shifts every driver's
// load; eq. 14), and runs one ConeWorklist walk (ssta/propagate.h): a dirty
// gate recomputes its delay, a changed delay or fanin arrival refolds it
// with run_ssta's fold_max, and only a bitwise-changed arrival reaches its
// fanouts. The primary-output fold then recomputes Tmax. Each fold is
// run_ssta's own, in fixed edge / mark_output order, over final inputs, so
// every answer is bit-identical to a full run_ssta on the edited view, which
// tests and bench/eco_incremental hard-check.

#pragma once

#include <cstddef>
#include <vector>

#include "netlist/circuit.h"
#include "netlist/timing_view.h"
#include "ssta/delay_model.h"
#include "ssta/propagate.h"
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
  std::size_t last_delay_recomputes() const { return last_.delays; }
  std::size_t last_arrival_recomputes() const { return last_.refolds; }

 private:
  netlist::TimingView view_;  ///< owned, mutable copy
  SigmaModel sigma_model_;
  std::vector<double> speed_;
  std::vector<stat::NormalRV> input_arrivals_;  ///< topo input order

  std::vector<stat::NormalRV> delay_;    ///< per node; {0,0} for inputs
  std::vector<stat::NormalRV> arrival_;  ///< per node
  stat::NormalRV tmax_;

  ConeWorklist cone_;  ///< persistent to avoid per-call allocation

  ConeWorklist::Counts last_;  ///< work of the last apply_edits / full_recompute
};

}  // namespace statsize::ssta
