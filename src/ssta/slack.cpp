#include "ssta/slack.h"

#include <algorithm>
#include <stdexcept>

#include "netlist/timing_view.h"
#include "stat/clark.h"

namespace statsize::ssta {

using netlist::NodeId;
using stat::NormalRV;

double SlackReport::meet_probability(NodeId id) const {
  const NormalRV& s = slack[static_cast<std::size_t>(id)];
  if (s.var <= 0.0) return s.mu >= 0.0 ? 1.0 : 0.0;
  return stat::normal_cdf(s.mu / s.sigma());
}

SlackReport compute_slacks(const netlist::TimingView& view,
                           const std::vector<NormalRV>& gate_delays,
                           const TimingReport& timing, double deadline) {
  if (static_cast<int>(gate_delays.size()) != view.num_nodes() ||
      timing.arrival.size() != gate_delays.size()) {
    throw std::invalid_argument("reports must be indexed by NodeId");
  }
  SlackReport report;
  const std::size_t n = gate_delays.size();
  report.required.assign(n, NormalRV{});
  report.slack.assign(n, NormalRV{});

  // Backward sweep in reverse topological order. A node's required time is
  // the statistical min over consumers of (their required time minus their
  // delay); output pads require the deadline itself.
  std::vector<char> has_required(n, 0);
  const std::vector<NodeId>& topo = view.topo_order();
  for (std::size_t t = topo.size(); t-- > 0;) {
    const NodeId id = topo[t];
    NormalRV req;
    bool have = false;
    if (view.is_output(id)) {
      req = NormalRV{deadline, 0.0};
      have = true;
    }
    for (NodeId fo : view.fanouts(id)) {
      const std::size_t f = static_cast<std::size_t>(fo);
      if (!has_required[f]) continue;  // consumer unreachable from outputs
      const NormalRV through = {report.required[f].mu - gate_delays[f].mu,
                                report.required[f].var + gate_delays[f].var};
      req = have ? stat::clark_min(req, through) : through;
      have = true;
    }
    if (!have) continue;  // node feeds no output (cannot happen post-finalize)
    has_required[static_cast<std::size_t>(id)] = 1;
    report.required[static_cast<std::size_t>(id)] = req;
    const NormalRV& arr = timing.arrival[static_cast<std::size_t>(id)];
    report.slack[static_cast<std::size_t>(id)] = {req.mu - arr.mu, req.var + arr.var};
  }
  return report;
}

std::vector<NodeId> extract_critical_path(const netlist::TimingView& view,
                                          const TimingReport& timing) {
  // Start at the PO with the largest mean arrival.
  NodeId cur = view.outputs().front();
  for (NodeId o : view.outputs()) {
    if (timing.arrival[static_cast<std::size_t>(o)].mu >
        timing.arrival[static_cast<std::size_t>(cur)].mu) {
      cur = o;
    }
  }
  std::vector<NodeId> path;
  path.push_back(cur);
  while (view.is_gate(cur)) {
    const netlist::NodeSpan fanins = view.fanins(cur);
    NodeId best = fanins[0];
    for (NodeId f : fanins) {
      if (timing.arrival[static_cast<std::size_t>(f)].mu >
          timing.arrival[static_cast<std::size_t>(best)].mu) {
        best = f;
      }
    }
    cur = best;
    path.push_back(cur);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace statsize::ssta
