// Statistical slack analysis: backward (required-time) propagation and
// critical-path extraction on top of the statistical arrival times.
//
// Required times propagate backward with the statistical *minimum*
// (min(A,B) = -max(-A,-B), using the same Clark machinery): the required
// time at a gate's output is the min over its fanouts of (required at the
// fanout minus the fanout's delay); primary outputs are required at the
// deadline. The slack S = R - T is reported under the engine's independence
// convention (mu subtracts, variances add), so a *negative mean* slack means
// the node is expected to miss the deadline and sigma quantifies confidence.
//
// This module is an analysis-side extension beyond the paper (the paper only
// sizes; any practical deployment needs to report where the walls are), built
// entirely from the paper's own statistical operators.

#pragma once

#include <vector>

#include "netlist/timing_view.h"
#include "ssta/ssta.h"
#include "stat/normal.h"

namespace statsize::ssta {

struct SlackReport {
  std::vector<stat::NormalRV> required;  ///< per node
  std::vector<stat::NormalRV> slack;     ///< per node: required - arrival

  /// Probability node `id` meets its required time, P(slack >= 0).
  double meet_probability(netlist::NodeId id) const;
};

/// Computes required times and slacks for `deadline` at every primary output.
SlackReport compute_slacks(const netlist::TimingView& view,
                           const std::vector<stat::NormalRV>& gate_delays,
                           const TimingReport& timing, double deadline);

/// Mean-critical path: from the latest-arriving primary output back through
/// the latest-arriving fanin to a primary input. Returned source-to-sink.
std::vector<netlist::NodeId> extract_critical_path(const netlist::TimingView& view,
                                                   const TimingReport& timing);

}  // namespace statsize::ssta
