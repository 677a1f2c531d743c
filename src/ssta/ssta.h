// Statistical static timing analysis — the propagation scheme of paper
// sec. 2/4: at every gate, take the statistical maximum (eqs. 10/12/13) of
// the fanin arrival times, then add (eq. 4) the gate's statistical delay; the
// total circuit delay distribution is the statistical maximum over all
// primary outputs.
//
// The statistical-independence assumption of eq. 6 is inherited: reconverging
// paths introduce correlation that the method ignores ([2] shows the error is
// very small; the Monte Carlo engine in monte_carlo.h quantifies it here).

#pragma once

#include <vector>

#include "netlist/timing_view.h"
#include "ssta/delay_model.h"
#include "stat/normal.h"

namespace statsize::ssta {

struct TimingReport {
  /// Arrival-time distribution T at every node's output, indexed by NodeId
  /// (primary inputs carry their schedule time).
  std::vector<stat::NormalRV> arrival;

  /// Statistical max over all primary outputs — the paper's (mu_Tmax,
  /// sigma_Tmax^2).
  stat::NormalRV circuit_delay;
};

/// Propagates arrival times through `view` (a Circuit passes as its view;
/// an ECO-edited copy works the same) given per-node gate delays (from
/// DelayCalculator::all_delays or custom). `input_arrival` applies to every
/// primary input; per-input schedules can be passed via the overload.
/// The sweep walks the gates in topological order on the calling thread, in
/// one short pass that polls no cancel token.
TimingReport run_ssta(const netlist::TimingView& view,
                      const std::vector<stat::NormalRV>& gate_delays,
                      const std::vector<stat::NormalRV>& input_arrivals);

TimingReport run_ssta(const netlist::TimingView& view,
                      const std::vector<stat::NormalRV>& gate_delays,
                      stat::NormalRV input_arrival = {});

/// Convenience: delay model evaluation + propagation in one call, on the
/// calculator's view.
TimingReport run_ssta(const DelayCalculator& calc, const std::vector<double>& speed);

// ---------------------------------------------------------------------------
// Deterministic (corner) STA baseline — the "traditional best case / typical
// / worst case delay analysis" the paper argues is pessimistic (sec. 1).
// ---------------------------------------------------------------------------

enum class Corner {
  kBest,     ///< every element at mu - 3 sigma
  kTypical,  ///< every element at mu
  kWorst,    ///< every element at mu + 3 sigma
};

struct StaReport {
  std::vector<double> arrival;  ///< per node
  double circuit_delay = 0.0;   ///< max over primary outputs
};

StaReport run_sta(const netlist::TimingView& view, const std::vector<stat::NormalRV>& gate_delays,
                  Corner corner);

}  // namespace statsize::ssta
