// Zero-delay switching-activity estimation — the substrate behind the
// paper's power objective (sec. 4: the weighted sum of sizing factors "can
// model area, or, if we take into account capacitances and switching activity
// under zero delay model in the weights, power"; see also Jacobs [8]).
//
// Signal probabilities propagate through the Boolean cell functions under the
// standard spatial-independence approximation; toggle activity at a net under
// temporally independent input vectors is a = 2 p (1 - p). The power weight
// of a gate's speed factor collects every capacitance term that scales
// linearly with it: its input-pin capacitance (charged at the fanin nets'
// activity) plus its internal capacitance (charged at its own output
// activity).

#pragma once

#include <vector>

#include "netlist/timing_view.h"

namespace statsize::ssta {

/// P(node = 1) for every node, inputs at `input_probability`.
std::vector<double> signal_probabilities(const netlist::TimingView& view,
                                         double input_probability = 0.5);

/// Toggle probability per evaluation cycle: 2 p (1 - p), per node.
std::vector<double> switching_activity(const netlist::TimingView& view,
                                       double input_probability = 0.5);

/// Per-gate power weights w_g such that dynamic power ~ sum_g w_g * S_g
/// (indexed by NodeId; non-gates get 0). `internal_cap_fraction` scales the
/// gate's own c_in into an internal-capacitance estimate.
std::vector<double> power_weights(const netlist::TimingView& view,
                                  double input_probability = 0.5,
                                  double internal_cap_fraction = 0.5);

/// Monte Carlo estimate of the signal probabilities (oracle for tests): draws
/// `num_samples` random input vectors and evaluates the circuit exactly —
/// including the reconvergence correlations the analytic propagation ignores.
std::vector<double> signal_probabilities_monte_carlo(const netlist::TimingView& view,
                                                     int num_samples,
                                                     std::uint64_t seed = 1,
                                                     double input_probability = 0.5);

}  // namespace statsize::ssta
