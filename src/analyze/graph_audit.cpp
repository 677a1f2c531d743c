#include "analyze/graph_audit.h"

#include <cstdio>
#include <string>

namespace statsize::analyze {

namespace {

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

}  // namespace

Report audit_level_widths(const std::vector<std::size_t>& level_widths) {
  Report report;
  for (std::size_t l = 0; l < level_widths.size(); ++l) {
    if (level_widths[l] == 0) {
      report.add("GRF002", "level " + std::to_string(l),
                 "level partition contains an empty level",
                 "a sound Circuit::finalize() never emits one; the schedule feeding this "
                 "histogram is corrupted");
    }
  }
  report.sort();
  return report;
}

Report audit_graph(const netlist::TimingView& view, const GraphAuditOptions& options,
                   netlist::TimingViewStats* stats_out) {
  Report report;

  if (options.invariant_check) {
    for (const std::string& violation : check_view_invariants(view)) {
      report.add("GRF001", "timing view", violation,
                 "the CSR arrays disagree with themselves; this is a compiler bug in "
                 "Circuit::finalize()/TimingView, not a netlist defect");
    }
  }

  const netlist::TimingViewStats stats = netlist::compute_view_stats(view, options.max_cone_samples);
  report.merge(audit_level_widths(stats.level_widths));

  // GRF004: fanout skew.
  if (stats.max_fanout >= options.fanout_skew_min && stats.mean_gate_fanout > 0.0 &&
      static_cast<double>(stats.max_fanout) >
          options.fanout_skew_factor * stats.mean_gate_fanout) {
    report.add("GRF004", "node #" + std::to_string(stats.max_fanout_node),
               "fanout " + std::to_string(stats.max_fanout) + " vs mean gate fanout " +
                   fmt(stats.mean_gate_fanout) + " (" +
                   fmt(static_cast<double>(stats.max_fanout) / stats.mean_gate_fanout) +
                   "x skew)",
               "the gate driving this net sums its whole load alone, and every speed "
               "change on its fanout re-times it; consider buffering the net");
  }

  // GRF005: reconvergence.
  if (stats.reconvergence_ratio > options.reconvergence_ratio_threshold) {
    report.add("GRF005", "timing graph",
               std::to_string(stats.reconvergence_count) + " reconvergent path pairs over " +
                   std::to_string(stats.num_edges) + " edges (ratio " +
                   fmt(stats.reconvergence_ratio) + ")",
               "independence SSTA drops the correlation these paths share; the canonical "
               "correlation-aware engine is the honest analysis here");
  }

  // GRF006: deep-and-narrow shape.
  if (!stats.level_widths.empty() && stats.mean_level_width > 0.0 &&
      static_cast<double>(stats.level_widths.size()) >
          options.deep_narrow_factor * stats.mean_level_width) {
    report.add("GRF006", "timing graph",
               std::to_string(stats.level_widths.size()) + " levels at mean width " +
                   fmt(stats.mean_level_width) +
                   ": each job's sweeps and adjoint level walk run one long dependent chain",
               "deep-narrow circuits gain throughput from independent jobs side by side (the "
               "serve executors), not from within one job");
  }

  if (stats_out != nullptr) *stats_out = stats;
  report.sort();
  return report;
}

}  // namespace statsize::analyze
