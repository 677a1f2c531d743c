// TILOS-style greedy sensitivity sizing — the classic heuristic baseline
// (Fishburn & Dunlop, ICCAD'85) that predates exact mathematical-programming
// approaches like the paper's. Each round, the gate with the best
// delay-improvement-per-area ratio gets a small size bump until the delay
// target is met (or no move helps).
//
// The paper's pitch is solving the sizing problem *exactly*; this baseline
// quantifies what exactness buys: bench `greedy_vs_nlp` compares achieved
// area at equal delay targets and the runtime trade.

#pragma once

#include <vector>

#include "core/spec.h"
#include "netlist/timing_view.h"

namespace statsize::core {

struct GreedyOptions {
  double step = 0.05;          ///< multiplicative size bump per accepted move
  int max_rounds = 100000;     ///< total accepted moves budget
  int candidates_per_round = 4;  ///< try the top-k sensitivity gates per round
};

struct GreedyResult {
  bool met_target = false;
  std::vector<double> speed;  ///< per NodeId
  double delay_metric = 0.0;  ///< final mu + k sigma
  double sum_speed = 0.0;
  int rounds = 0;
  double wall_seconds = 0.0;
};

/// Greedily sizes `view` until mu + sigma_weight * sigma <= target (or no
/// move improves the metric). Starts from S = 1 everywhere.
GreedyResult greedy_size(const netlist::TimingView& view, const SizingSpec& spec,
                         double target, double sigma_weight,
                         const GreedyOptions& options = {});

}  // namespace statsize::core
