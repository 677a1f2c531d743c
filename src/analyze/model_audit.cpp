#include "analyze/model_audit.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

#include "nlp/derivative_check.h"
#include "ssta/delay_model.h"
#include "ssta/propagate.h"
#include "stat/clark.h"

namespace statsize::analyze {

namespace {

using netlist::NodeId;
using netlist::NodeKind;
using stat::NormalRV;

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// SplitMix64 — small deterministic generator for audit points (independent
/// of libstdc++ distribution internals, so findings are reproducible).
class Rng {
 public:
  explicit Rng(unsigned seed) : state_(0x9e3779b97f4a7c15ull ^ seed) {}
  double uniform01() {
    state_ += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    return static_cast<double>(z >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

}  // namespace

Report audit_problem_bounds(const nlp::Problem& problem, std::string_view what) {
  Report report;
  auto locus = [&](int i) {
    return "variable '" + problem.var_name(i) + "' [" + std::string(what) + "]";
  };
  for (int i = 0; i < problem.num_vars(); ++i) {
    const std::size_t k = static_cast<std::size_t>(i);
    const double lo = problem.lower()[k];
    const double hi = problem.upper()[k];
    const double s0 = problem.start()[k];
    if (!(lo <= hi)) continue;  // an empty box, NaN included, is NLP001's finding
    if (!std::isfinite(s0)) {
      report.add("MOD001", locus(i), "start value is not finite");
      continue;
    }
    const double slack = 1e-9 * (1.0 + std::abs(s0));
    if (s0 < lo - slack || s0 > hi + slack) {
      report.add("MOD001", locus(i),
                 "start " + fmt(s0) + " lies outside bounds [" + fmt(lo) + ", " + fmt(hi) + "]",
                 "the optimizer projects onto the box, silently moving the start point");
    }
  }
  return report;
}

Report audit_clark_degeneracy(const netlist::Circuit& circuit, const ssta::SigmaModel& model,
                              const std::vector<double>& speed, double theta_threshold) {
  Report report;
  const ssta::DelayCalculator calc(circuit, model);
  const std::vector<NormalRV> delays = calc.all_delays(speed);
  std::vector<NormalRV> arrival(static_cast<std::size_t>(circuit.num_nodes()));
  std::vector<char> is_const(static_cast<std::size_t>(circuit.num_nodes()), 0);

  auto check_pair = [&](const NormalRV& a, const NormalRV& b, bool any_live,
                        const std::string& locus, const std::string& where) {
    if (!any_live) return;  // folded at build time; no Clark element exists
    const double theta = std::sqrt(a.var + b.var);
    if (theta >= theta_threshold) return;
    report.add("MOD002", locus,
               where + ": theta = sqrt(" + fmt(a.var) + " + " + fmt(b.var) + ") = " +
                   fmt(theta) + " below threshold " + fmt(theta_threshold) + " (operand means " +
                   fmt(a.mu) + ", " + fmt(b.mu) + ")",
               "near-deterministic max operands make the Clark derivatives (eqs. 10-13) "
               "ill-conditioned; raise the sigma model's kappa/offset or review the merge");
  };

  // The SSTA fold with check_pair on every merge; a merge's result is
  // constant only when both operands were.
  auto checked_fold = [&](const std::vector<NodeId>& nodes, auto&& locus, const char* where) {
    bool acc_const = is_const[static_cast<std::size_t>(nodes[0])] != 0;
    return ssta::fold_max(
        nodes, arrival, [&](const NormalRV& acc, const NormalRV& b, std::size_t k) {
          const bool b_const = is_const[static_cast<std::size_t>(nodes[k])] != 0;
          check_pair(acc, b, !acc_const || !b_const, locus(nodes[k]), where + std::to_string(k));
          acc_const = acc_const && b_const;
          return stat::clark_max(acc, b);
        });
  };

  for (NodeId id : circuit.topo_order()) {
    const netlist::Node& n = circuit.node(id);
    const std::size_t i = static_cast<std::size_t>(id);
    if (n.kind == NodeKind::kPrimaryInput) {
      arrival[i] = NormalRV{0.0, 0.0};
      is_const[i] = 1;
      continue;
    }
    arrival[i] = stat::add(
        checked_fold(n.fanins, [&](NodeId) { return "gate '" + n.name + "'"; },
                     "fanin merge "),
        delays[i]);
  }
  checked_fold(
      circuit.outputs(), [&](NodeId o) { return "output '" + circuit.node(o).name + "'"; },
      "primary-output merge ");
  return report;
}

Report audit_problem_derivatives(const nlp::Problem& problem, std::string_view what, int points,
                                 unsigned seed) {
  constexpr double kTol = 1e-4;
  Report report;
  Rng rng(seed);
  const std::string locus = "formulation [" + std::string(what) + "]";
  for (int sample = 0; sample <= points; ++sample) {
    std::vector<double> x = problem.start();
    if (sample > 0) {
      // Deterministic interior point: uniform in the middle 80% of each box,
      // with infinite bounds replaced by a start-scaled span. Staying off the
      // box faces keeps the check away from element kinks (SqrtElement's
      // floor sits at/below the variance lower bounds).
      for (int i = 0; i < problem.num_vars(); ++i) {
        const std::size_t k = static_cast<std::size_t>(i);
        const double span = 1.0 + 0.5 * std::abs(x[k]);
        const double lo =
            std::isinf(problem.lower()[k]) ? x[k] - span : problem.lower()[k];
        const double hi = std::isinf(problem.upper()[k]) ? x[k] + span : problem.upper()[k];
        x[k] = lo + (0.1 + 0.8 * rng.uniform01()) * (hi - lo);
      }
    }
    const nlp::DerivativeReport dr = nlp::check_problem_derivatives(problem, x);
    if (!dr.ok(kTol)) {
      report.add("MOD003", locus,
                 std::string(sample == 0 ? "at the feasible start point"
                                         : "at randomized point " + std::to_string(sample)) +
                     ": max gradient error " + fmt(dr.max_gradient_error) +
                     ", max Hessian error " + fmt(dr.max_hessian_error) + " (tolerance " +
                     fmt(kTol) + ")",
                 "an analytic derivative disagrees with central differences; the optimizer "
                 "would converge to a wrong sizing or stall");
    }
  }
  return report;
}

Report audit_spec(const core::SizingSpec& spec, const netlist::Circuit& circuit) {
  Report report;
  if (spec.max_speed < 1.0) {
    report.add("MOD004", "sizing spec",
               "max_speed = " + fmt(spec.max_speed) +
                   " is below 1, so the sizing box S in [1, limit] is empty");
  }
  if (spec.objective.kind == core::ObjectiveKind::kWeighted &&
      static_cast<int>(spec.objective.weights.size()) < circuit.num_nodes()) {
    report.add("MOD004", "sizing spec",
               "weighted objective carries " + std::to_string(spec.objective.weights.size()) +
                   " weights for " + std::to_string(circuit.num_nodes()) + " nodes",
               "weights must be indexed by NodeId (ssta::power_weights produces the right shape)");
  }
  if (spec.delay_constraint && spec.delay_constraint->bound <= 0.0) {
    report.add("MOD004", "sizing spec",
               "delay bound " + fmt(spec.delay_constraint->bound) +
                   " is not positive, but gate delays are (t_int > 0)");
  }
  return report;
}

Report audit_view_compilability(const netlist::Circuit& circuit) {
  Report report;
  const netlist::CellLibrary& lib = circuit.library();
  std::vector<char> cell_flagged(static_cast<std::size_t>(lib.size()), 0);
  for (NodeId id = 0; id < circuit.num_nodes(); ++id) {
    const netlist::Node& n = circuit.node(id);
    if (!std::isfinite(n.wire_load) || (n.is_output && !std::isfinite(n.pad_load))) {
      report.add("MOD005", "node '" + n.name + "'",
                 "wire/pad load (" + fmt(n.wire_load) + " / " + fmt(n.pad_load) +
                     ") is not finite, so the node's precomputed static load would be NaN/Inf",
                 "Circuit::finalize() would reject the circuit when compiling its TimingView");
    }
    if (n.kind != NodeKind::kGate || n.cell < 0 || n.cell >= lib.size()) continue;
    if (cell_flagged[static_cast<std::size_t>(n.cell)]) continue;  // one finding per cell
    const netlist::CellType& cell = lib.cell(n.cell);
    const struct {
      const char* what;
      double value;
    } params[] = {{"intrinsic delay t_int", cell.t_int},
                  {"drive coefficient c", cell.c},
                  {"input capacitance c_in", cell.c_in},
                  {"area", cell.area}};
    for (const auto& p : params) {
      if (std::isfinite(p.value)) continue;
      cell_flagged[static_cast<std::size_t>(n.cell)] = 1;
      report.add("MOD005", "cell '" + cell.name + "'",
                 std::string(p.what) + " = " + fmt(p.value) +
                     " is not finite; the TimingView precomputes it into per-gate constants "
                     "and per-fanout-edge capacitances, poisoning every timing sweep",
                 "Circuit::finalize() would reject the circuit when compiling its TimingView");
      break;
    }
  }
  return report;
}

}  // namespace statsize::analyze
