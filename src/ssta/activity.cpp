#include "ssta/activity.h"

#include <random>
#include <stdexcept>

#include "netlist/timing_view.h"

namespace statsize::ssta {

using netlist::CellFunction;
using netlist::NodeId;
using netlist::NodeKind;

namespace {

double prob_of_gate(CellFunction fn, const NodeId* fanins, std::size_t num_fanins,
                    const std::vector<double>& probs) {
  auto pin = [&](std::size_t i) { return probs[static_cast<std::size_t>(fanins[i])]; };
  switch (fn) {
    case CellFunction::kBuf:
      return pin(0);
    case CellFunction::kInv:
      return 1.0 - pin(0);
    case CellFunction::kAnd:
    case CellFunction::kNand: {
      double all1 = 1.0;
      for (std::size_t i = 0; i < num_fanins; ++i) all1 *= pin(i);
      return fn == CellFunction::kAnd ? all1 : 1.0 - all1;
    }
    case CellFunction::kOr:
    case CellFunction::kNor: {
      double all0 = 1.0;
      for (std::size_t i = 0; i < num_fanins; ++i) all0 *= 1.0 - pin(i);
      return fn == CellFunction::kOr ? 1.0 - all0 : all0;
    }
    case CellFunction::kXor: {
      // P(odd number of ones): fold p_xor = a(1-b) + b(1-a).
      double acc = pin(0);
      for (std::size_t i = 1; i < num_fanins; ++i) {
        acc = acc * (1.0 - pin(i)) + pin(i) * (1.0 - acc);
      }
      return acc;
    }
    case CellFunction::kAoi21:
      // y = !((a & b) | c) -> P = (1 - pa pb)(1 - pc)
      return (1.0 - pin(0) * pin(1)) * (1.0 - pin(2));
    case CellFunction::kOai21: {
      // y = !((a | b) & c) -> P = 1 - (1 - (1-pa)(1-pb)) pc
      const double or_ab = 1.0 - (1.0 - pin(0)) * (1.0 - pin(1));
      return 1.0 - or_ab * pin(2);
    }
  }
  throw std::logic_error("unhandled cell function");
}

bool eval_gate(CellFunction fn, const NodeId* fanins, std::size_t num_fanins,
               const std::vector<char>& value) {
  auto pin = [&](std::size_t i) { return value[static_cast<std::size_t>(fanins[i])] != 0; };
  switch (fn) {
    case CellFunction::kBuf:
      return pin(0);
    case CellFunction::kInv:
      return !pin(0);
    case CellFunction::kAnd:
    case CellFunction::kNand: {
      bool all = true;
      for (std::size_t i = 0; i < num_fanins && all; ++i) all = pin(i);
      return fn == CellFunction::kAnd ? all : !all;
    }
    case CellFunction::kOr:
    case CellFunction::kNor: {
      bool any = false;
      for (std::size_t i = 0; i < num_fanins && !any; ++i) any = pin(i);
      return fn == CellFunction::kOr ? any : !any;
    }
    case CellFunction::kXor: {
      bool acc = false;
      for (std::size_t i = 0; i < num_fanins; ++i) acc = acc != pin(i);
      return acc;
    }
    case CellFunction::kAoi21:
      return !((pin(0) && pin(1)) || pin(2));
    case CellFunction::kOai21:
      return !((pin(0) || pin(1)) && pin(2));
  }
  throw std::logic_error("unhandled cell function");
}

}  // namespace

std::vector<double> signal_probabilities(const netlist::TimingView& view,
                                         double input_probability) {
  if (input_probability < 0.0 || input_probability > 1.0) {
    throw std::invalid_argument("input probability must lie in [0, 1]");
  }
  std::vector<double> probs(static_cast<std::size_t>(view.num_nodes()), 0.0);
  for (NodeId id : view.topo_order()) {
    if (view.kind(id) == NodeKind::kPrimaryInput) {
      probs[static_cast<std::size_t>(id)] = input_probability;
    } else {
      const netlist::NodeSpan fanins = view.fanins(id);
      probs[static_cast<std::size_t>(id)] =
          prob_of_gate(view.function(id), fanins.begin(), fanins.size(), probs);
    }
  }
  return probs;
}

std::vector<double> switching_activity(const netlist::TimingView& view,
                                       double input_probability) {
  std::vector<double> act = signal_probabilities(view, input_probability);
  for (double& p : act) p = 2.0 * p * (1.0 - p);
  return act;
}

std::vector<double> power_weights(const netlist::TimingView& view, double input_probability,
                                  double internal_cap_fraction) {
  const std::vector<double> act = switching_activity(view, input_probability);
  std::vector<double> weights(static_cast<std::size_t>(view.num_nodes()), 0.0);
  for (NodeId id : view.gates_in_topo_order()) {
    const double cin = view.c_in(id);
    double w = internal_cap_fraction * cin * act[static_cast<std::size_t>(id)];
    for (NodeId f : view.fanins(id)) w += cin * act[static_cast<std::size_t>(f)];
    weights[static_cast<std::size_t>(id)] = w;
  }
  return weights;
}

std::vector<double> signal_probabilities_monte_carlo(const netlist::TimingView& view,
                                                     int num_samples, std::uint64_t seed,
                                                     double input_probability) {
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution coin(input_probability);
  std::vector<char> value(static_cast<std::size_t>(view.num_nodes()), 0);
  std::vector<long> ones(static_cast<std::size_t>(view.num_nodes()), 0);
  for (int s = 0; s < num_samples; ++s) {
    for (NodeId id : view.topo_order()) {
      bool v;
      if (view.kind(id) == NodeKind::kPrimaryInput) {
        v = coin(rng);
      } else {
        const netlist::NodeSpan fanins = view.fanins(id);
        v = eval_gate(view.function(id), fanins.begin(), fanins.size(), value);
      }
      value[static_cast<std::size_t>(id)] = v ? 1 : 0;
      if (v) ++ones[static_cast<std::size_t>(id)];
    }
  }
  std::vector<double> probs(ones.size());
  for (std::size_t i = 0; i < ones.size(); ++i) {
    probs[i] = static_cast<double>(ones[i]) / num_samples;
  }
  return probs;
}

}  // namespace statsize::ssta
