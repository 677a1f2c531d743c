// TimingView graph analytics (rules GRF001, GRF002, GRF004..GRF006) — the
// step the lint driver (lint.h, `statsize lint`) runs right after finalize().
//
// The raw numbers come from netlist::compute_view_stats / check_view_-
// invariants; this module judges them: CSR soundness (GRF001/002), fanout
// hot spots (GRF004), correlation blind spots (GRF005), and deep-narrow
// shapes (GRF006). Everything is deterministic: a pure function of the view.

#pragma once

#include <cstddef>
#include <vector>

#include "analyze/diagnostic.h"
#include "netlist/timing_view.h"

namespace statsize::analyze {

struct GraphAuditOptions {
  /// GRF004 fires when max fanout exceeds both this absolute floor and
  /// skew_factor * mean gate fanout.
  std::size_t fanout_skew_min = 32;
  double fanout_skew_factor = 16.0;
  /// GRF005 fires above this reconvergence ratio (Betti edges / all edges).
  double reconvergence_ratio_threshold = 0.25;
  /// GRF006 fires when num_levels > deep_factor * mean level width.
  double deep_narrow_factor = 4.0;
  int max_cone_samples = 64;
  bool invariant_check = true;  ///< GRF001 CSR self-check (O(V + E log-ish))
};

/// GRF002 over a bare level-width histogram. Split out so defect injection
/// (zero-width level spam) and tests can audit a synthetic histogram without
/// forging a TimingView.
Report audit_level_widths(const std::vector<std::size_t>& level_widths);

/// Full GRF audit over a compiled view: invariant self-check, then the
/// histogram/skew/reconvergence/depth judgments on compute_view_stats.
/// `stats_out` (optional) receives the analytics so callers (the lint driver)
/// can report them without recomputing.
Report audit_graph(const netlist::TimingView& view, const GraphAuditOptions& options = {},
                   netlist::TimingViewStats* stats_out = nullptr);

}  // namespace statsize::analyze
