#include "core/discrete.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/reduced_space.h"

namespace statsize::core {

using netlist::NodeId;

SizeGrid SizeGrid::geometric(double max_speed, int steps) {
  if (steps < 2 || max_speed <= 1.0) throw std::invalid_argument("need >=2 steps, max > 1");
  SizeGrid grid;
  grid.sizes.reserve(static_cast<std::size_t>(steps));
  const double ratio = std::pow(max_speed, 1.0 / (steps - 1));
  double s = 1.0;
  for (int i = 0; i < steps; ++i) {
    grid.sizes.push_back(i + 1 == steps ? max_speed : s);
    s *= ratio;
  }
  return grid;
}

double SizeGrid::snap(double s, bool round_up) const {
  const auto it = std::lower_bound(sizes.begin(), sizes.end(), s - 1e-12);
  if (it == sizes.end()) return sizes.back();
  if (it == sizes.begin()) return sizes.front();
  const double hi = *it;
  const double lo = *(it - 1);
  if (round_up) return hi;
  return (s - lo) <= (hi - s) ? lo : hi;
}

namespace {

/// Index of `s` in the grid (it must be a grid point).
int grid_index(const SizeGrid& grid, double s) {
  const auto it =
      std::min_element(grid.sizes.begin(), grid.sizes.end(),
                       [s](double a, double b) { return std::abs(a - s) < std::abs(b - s); });
  return static_cast<int>(it - grid.sizes.begin());
}

}  // namespace

DiscreteResult legalize_sizing(const netlist::TimingView& view, const SizingSpec& spec,
                               const std::vector<double>& continuous_speed,
                               const SizeGrid& grid, double target, double sigma_weight) {
  if (grid.sizes.empty()) throw std::invalid_argument("empty size grid");
  const bool constrained = target < std::numeric_limits<double>::infinity();
  const ReducedEvaluator eval(view, spec.sigma_model);
  const std::vector<NodeId>& gates = view.gates_in_topo_order();

  DiscreteResult result;
  result.speed.assign(static_cast<std::size_t>(view.num_nodes()), grid.sizes.front());
  for (NodeId g : gates) {
    const std::size_t i = static_cast<std::size_t>(g);
    result.speed[i] = grid.snap(continuous_speed[i], /*round_up=*/constrained);
  }

  double metric = eval.eval_metric(result.speed, sigma_weight, nullptr);

  // Repair: while infeasible, take the single-gate up-move with the best
  // improvement (per area) until feasible or stuck.
  std::vector<double> grad;
  while (constrained && metric > target) {
    eval.eval_metric(result.speed, sigma_weight, &grad);
    NodeId best = netlist::kInvalidNode;
    double best_score = 0.0;
    for (NodeId g : gates) {
      const std::size_t i = static_cast<std::size_t>(g);
      const int idx = grid_index(grid, result.speed[i]);
      if (idx + 1 >= static_cast<int>(grid.sizes.size())) continue;
      // Gain per unit area: the metric drop -grad * dS divided by the area
      // cost dS — i.e. simply the (negated) gradient.
      const double score = -grad[i];
      if (score > best_score) {
        best_score = score;
        best = g;
      }
    }
    if (best == netlist::kInvalidNode) break;
    const std::size_t bi = static_cast<std::size_t>(best);
    result.speed[bi] =
        grid.sizes[static_cast<std::size_t>(grid_index(grid, result.speed[bi]) + 1)];
    const double trial = eval.eval_metric(result.speed, sigma_weight, nullptr);
    if (trial >= metric - 1e-12) {
      // Gradient misled (upstream loading dominated); undo and stop repairing
      // through this gate by accepting the stall.
      result.speed[bi] =
          grid.sizes[static_cast<std::size_t>(grid_index(grid, result.speed[bi]) - 1)];
      break;
    }
    metric = trial;
    ++result.repair_moves;
  }

  // Trim: try to downsize every gate (largest first) while staying feasible.
  if (!constrained || metric <= target) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (NodeId g : gates) {
        const std::size_t i = static_cast<std::size_t>(g);
        const int idx = grid_index(grid, result.speed[i]);
        if (idx == 0) continue;
        const double saved = result.speed[i];
        result.speed[i] = grid.sizes[static_cast<std::size_t>(idx - 1)];
        const double trial = eval.eval_metric(result.speed, sigma_weight, nullptr);
        if (!constrained ? trial <= metric + 1e-12 : trial <= target) {
          metric = trial;
          ++result.trim_moves;
          changed = true;
        } else {
          result.speed[i] = saved;
        }
      }
    }
  }

  result.delay_metric = metric;
  result.feasible = !constrained || metric <= target + 1e-9;
  for (NodeId g : gates) result.sum_speed += result.speed[static_cast<std::size_t>(g)];
  return result;
}

}  // namespace statsize::core
