#include "ssta/ssta.h"

#include <algorithm>
#include <stdexcept>

#include "netlist/timing_view.h"
#include "ssta/propagate.h"
#include "stat/clark.h"

namespace statsize::ssta {

using netlist::NodeId;
using netlist::NodeKind;
using stat::NormalRV;

TimingReport run_ssta(const netlist::TimingView& view, const std::vector<NormalRV>& gate_delays,
                      const std::vector<NormalRV>& input_arrivals) {
  if (static_cast<int>(gate_delays.size()) != view.num_nodes()) {
    throw std::invalid_argument("gate_delays must be indexed by NodeId");
  }
  if (static_cast<int>(input_arrivals.size()) != view.num_inputs()) {
    throw std::invalid_argument(
        "input_arrivals must carry one entry per primary input (in topological "
        "input order)");
  }
  TimingReport report;
  report.arrival.resize(static_cast<std::size_t>(view.num_nodes()));

  // Primary inputs take their schedule time; ordinal = position among the
  // inputs in topological order.
  int pi_index = 0;
  for (NodeId id : view.topo_order()) {
    if (view.kind(id) == NodeKind::kPrimaryInput) {
      report.arrival[static_cast<std::size_t>(id)] =
          input_arrivals[static_cast<std::size_t>(pi_index++)];
    }
  }

  // U = statistical max over fanin arrivals (eq. 18b), then T = U + t
  // (eq. 4), gate by gate in topological order.
  for (NodeId id : view.gates_in_topo_order()) {
    report.arrival[static_cast<std::size_t>(id)] =
        stat::add(fold_max(view.fanins(id), report.arrival, stat::clark_max),
                  gate_delays[static_cast<std::size_t>(id)]);
  }
  report.circuit_delay = fold_max(view.outputs(), report.arrival, stat::clark_max);
  return report;
}

TimingReport run_ssta(const netlist::TimingView& view, const std::vector<NormalRV>& gate_delays,
                      NormalRV input_arrival) {
  const std::vector<NormalRV> arrivals(static_cast<std::size_t>(view.num_inputs()),
                                       input_arrival);
  return run_ssta(view, gate_delays, arrivals);
}

TimingReport run_ssta(const DelayCalculator& calc, const std::vector<double>& speed) {
  return run_ssta(calc.view(), calc.all_delays(speed));
}

StaReport run_sta(const netlist::TimingView& view, const std::vector<NormalRV>& gate_delays,
                  Corner corner) {
  if (static_cast<int>(gate_delays.size()) != view.num_nodes()) {
    throw std::invalid_argument("gate_delays must be indexed by NodeId");
  }
  const double k = corner == Corner::kBest ? -3.0 : corner == Corner::kWorst ? 3.0 : 0.0;
  StaReport report;
  report.arrival.resize(static_cast<std::size_t>(view.num_nodes()), 0.0);
  const auto max = [](double a, double b) { return std::max(a, b); };
  for (NodeId id : view.gates_in_topo_order()) {
    report.arrival[static_cast<std::size_t>(id)] =
        fold_max(view.fanins(id), report.arrival, max) +
        gate_delays[static_cast<std::size_t>(id)].quantile_offset(k);
  }
  report.circuit_delay = fold_max(view.outputs(), report.arrival, max);
  return report;
}

}  // namespace statsize::ssta
