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

#include "netlist/circuit.h"
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

/// Propagates arrival times through `circuit` given per-node gate delays
/// (from DelayCalculator::all_delays or custom). `input_arrival` applies to
/// every primary input; per-input schedules can be passed via the overload.
/// Views of at least 192 gates are swept level by level on the global
/// runtime pool when it has more than one thread; each gate's fold is a
/// fixed serial computation, so results are identical at any thread count.
TimingReport run_ssta(const netlist::Circuit& circuit,
                      const std::vector<stat::NormalRV>& gate_delays,
                      stat::NormalRV input_arrival = {});

TimingReport run_ssta(const netlist::Circuit& circuit,
                      const std::vector<stat::NormalRV>& gate_delays,
                      const std::vector<stat::NormalRV>& input_arrivals);

/// View-level propagation — the implementation the Circuit overloads
/// delegate to. Takes any TimingView, including an ECO-edited copy with no
/// backing Circuit (the serve PATCH path / IncrementalEngine cross-check).
TimingReport run_ssta(const netlist::TimingView& view,
                      const std::vector<stat::NormalRV>& gate_delays,
                      const std::vector<stat::NormalRV>& input_arrivals);

TimingReport run_ssta(const netlist::TimingView& view,
                      const std::vector<stat::NormalRV>& gate_delays,
                      stat::NormalRV input_arrival = {});

/// Convenience: delay model evaluation + propagation in one call (runs on
/// the calculator's view, so it works for view-only calculators too).
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

StaReport run_sta(const netlist::Circuit& circuit, const std::vector<stat::NormalRV>& gate_delays,
                  Corner corner);

StaReport run_sta(const netlist::TimingView& view, const std::vector<stat::NormalRV>& gate_delays,
                  Corner corner);

}  // namespace statsize::ssta
