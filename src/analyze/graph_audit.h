// TimingView graph analytics (rules GRF001, GRF002, GRF004..GRF006) — the
// step the lint driver (lint.h, `statsize lint`) runs right after finalize().
//
// The raw numbers come from netlist::compute_view_stats / check_view_-
// invariants; this module judges them against fixed thresholds: CSR soundness
// (GRF001/002), fanout hot spots (GRF004), correlation blind spots (GRF005),
// and deep-narrow shapes (GRF006). Everything is deterministic: a pure
// function of the view.

#pragma once

#include <cstddef>
#include <vector>

#include "analyze/diagnostic.h"
#include "netlist/timing_view.h"

namespace statsize::analyze {

/// GRF002 over a bare level-width histogram. Split out so defect injection
/// (zero-width level spam) and tests can audit a synthetic histogram without
/// forging a TimingView.
Report audit_level_widths(const std::vector<std::size_t>& level_widths);

/// Full GRF audit over a compiled view: invariant self-check, then the
/// histogram/skew/reconvergence/depth judgments on compute_view_stats, each
/// against a fixed threshold (graph_audit.cpp). `stats_out` (optional)
/// receives the analytics so callers (the lint driver) can report them
/// without recomputing.
Report audit_graph(const netlist::TimingView& view, netlist::TimingViewStats* stats_out = nullptr);

}  // namespace statsize::analyze
