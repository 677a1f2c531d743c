// Discrete sizing on top of the continuous optimum.
//
// Real cell libraries offer a finite set of drive strengths (X1, X1.5, X2,
// ...), while the paper's formulation treats S as continuous. The standard
// industrial flow keeps the continuous NLP and *legalizes* afterwards:
//
//   1. snap every S_g to the nearest grid point (rounding up when a delay
//      constraint is active, so feasibility is not lost by rounding),
//   2. greedy repair: while the delay constraint is violated, bump the gate
//      whose upsizing helps most; then trim: downsize gates whose reduction
//      keeps the constraint satisfied (recovering area the conservative
//      rounding spent).
//
// Bench `ablation_discrete` measures the legalization gap (area/delay loss vs
// the continuous optimum) as a function of grid resolution.

#pragma once

#include <vector>

#include "core/spec.h"
#include "netlist/timing_view.h"

namespace statsize::core {

/// A discrete size grid, e.g. {1.0, 1.33, 1.78, 2.37, 3.0}.
struct SizeGrid {
  std::vector<double> sizes;  ///< ascending, first >= 1

  /// Geometric grid with `steps` points from 1 to max_speed inclusive.
  static SizeGrid geometric(double max_speed, int steps);

  /// Nearest grid point; `round_up` biases ties and between-point values up.
  double snap(double s, bool round_up) const;
};

struct DiscreteResult {
  bool feasible = false;        ///< delay constraint met after repair
  std::vector<double> speed;    ///< per NodeId, all on the grid
  double delay_metric = 0.0;
  double sum_speed = 0.0;
  int repair_moves = 0;
  int trim_moves = 0;
};

/// Legalizes a continuous sizing onto `grid` under the constraint
/// mu + sigma_weight * sigma <= target (pass infinity for unconstrained).
DiscreteResult legalize_sizing(const netlist::TimingView& view, const SizingSpec& spec,
                               const std::vector<double>& continuous_speed,
                               const SizeGrid& grid, double target, double sigma_weight);

}  // namespace statsize::core
