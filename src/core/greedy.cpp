#include "core/greedy.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "core/reduced_space.h"

namespace statsize::core {

using netlist::NodeId;

GreedyResult greedy_size(const netlist::TimingView& view, const SizingSpec& spec,
                         double target, double sigma_weight, const GreedyOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();
  const ReducedEvaluator eval(view, spec.sigma_model);

  GreedyResult result;
  result.speed.assign(static_cast<std::size_t>(view.num_nodes()), 1.0);

  const std::vector<NodeId>& gates = view.gates_in_topo_order();

  std::vector<double> grad;
  double metric = eval.eval_metric(result.speed, sigma_weight, &grad);

  for (int round = 0; round < options.max_rounds; ++round) {
    if (metric <= target) {
      result.met_target = true;
      break;
    }
    // Rank gates by gradient-predicted improvement per unit area of the bump.
    // d metric ~ grad_g * dS; area cost = dS; sensitivity = -grad_g.
    std::vector<NodeId> order;
    order.reserve(gates.size());
    for (NodeId g : gates) {
      if (result.speed[static_cast<std::size_t>(g)] < spec.max_speed - 1e-9 &&
          grad[static_cast<std::size_t>(g)] < 0.0) {
        order.push_back(g);
      }
    }
    if (order.empty()) break;  // every helpful gate is maxed out
    const int k = std::min<int>(options.candidates_per_round, static_cast<int>(order.size()));
    std::partial_sort(order.begin(), order.begin() + k, order.end(),
                      [&](NodeId a, NodeId b) {
                        return grad[static_cast<std::size_t>(a)] <
                               grad[static_cast<std::size_t>(b)];
                      });

    // Try the top-k candidates with a real evaluation; accept the best move
    // (gradients are local — a bump changes upstream loading too).
    NodeId best = netlist::kInvalidNode;
    double best_metric = metric;
    for (int i = 0; i < k; ++i) {
      const NodeId g = order[static_cast<std::size_t>(i)];
      const std::size_t gi = static_cast<std::size_t>(g);
      const double saved = result.speed[gi];
      result.speed[gi] = std::min(spec.max_speed, saved * (1.0 + options.step));
      const double trial = eval.eval_metric(result.speed, sigma_weight, nullptr);
      result.speed[gi] = saved;
      if (trial < best_metric - 1e-12) {
        best_metric = trial;
        best = g;
      }
    }
    if (best == netlist::kInvalidNode) break;  // no candidate improves: stuck
    const std::size_t bi = static_cast<std::size_t>(best);
    result.speed[bi] = std::min(spec.max_speed, result.speed[bi] * (1.0 + options.step));
    metric = eval.eval_metric(result.speed, sigma_weight, &grad);
    result.rounds = round + 1;
  }

  result.delay_metric = metric;
  for (NodeId g : gates) result.sum_speed += result.speed[static_cast<std::size_t>(g)];
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return result;
}

}  // namespace statsize::core
