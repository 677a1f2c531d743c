#include "core/full_space.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "core/clark_element.h"
#include "netlist/timing_view.h"
#include "ssta/delay_model.h"
#include "stat/clark.h"

namespace statsize::core {

namespace {

using netlist::NodeId;
using netlist::NodeKind;
using nlp::FunctionGroup;
using nlp::Problem;
using stat::NormalRV;

/// An arrival-time operand in the fold: either a compile-time constant
/// (primary inputs, folds of constants) or a pair of NLP variables carrying
/// their start values.
struct Operand {
  bool is_const = true;
  NormalRV value;  ///< constant value, or start value when !is_const
  int mu_var = -1;
  int var_var = -1;
  double var_floor = 0.0;  ///< valid lower bound carried by var_var
};

class Builder {
 public:
  Builder(const netlist::TimingView& view, const SizingSpec& spec,
          const std::vector<double>& start_speed)
      : view_(view), spec_(spec), start_speed_(start_speed) {
    out_.problem = std::make_unique<Problem>();
    out_.speed_var.assign(static_cast<std::size_t>(view.num_nodes()), -1);
  }

  FullSpaceFormulation build();

 private:
  Problem& p() { return *out_.problem; }

  Operand fold_max(const Operand& a, const Operand& b, const std::string& tag);
  Operand nary_fanin_fold(NodeId gate);
  Operand operand_of(NodeId id) const;

  const netlist::TimingView& view_;
  const SizingSpec& spec_;
  const std::vector<double>& start_speed_;
  FullSpaceFormulation out_;

  // Shared stateless elements.
  const nlp::ElementFunction* product_ = nullptr;
  const nlp::ElementFunction* square_ = nullptr;
  const nlp::ElementFunction* clark_mu_ = nullptr;
  const nlp::ElementFunction* clark_var_ = nullptr;

  // Per-gate variable indices (by NodeId).
  std::vector<int> mu_t_var_;
  std::vector<int> var_t_var_;
  std::vector<int> mu_arr_var_;
  std::vector<int> var_arr_var_;
  std::vector<NormalRV> delay_start_;
  std::vector<NormalRV> arrival_start_;
  std::vector<double> arr_var_floor_;
};

Operand Builder::operand_of(NodeId id) const {
  if (view_.kind(id) == NodeKind::kPrimaryInput) {
    return Operand{true, NormalRV{0.0, 0.0}, -1, -1, 0.0};
  }
  Operand op;
  op.is_const = false;
  op.value = arrival_start_[static_cast<std::size_t>(id)];
  op.mu_var = mu_arr_var_[static_cast<std::size_t>(id)];
  op.var_var = var_arr_var_[static_cast<std::size_t>(id)];
  op.var_floor = arr_var_floor_[static_cast<std::size_t>(id)];
  return op;
}

Operand Builder::fold_max(const Operand& a, const Operand& b, const std::string& tag) {
  if (a.is_const && b.is_const) {
    return Operand{true, stat::clark_max(a.value, b.value), -1, -1};
  }
  ++out_.num_max_pairs;
  const NormalRV folded = stat::clark_max(a.value, b.value);
  Operand r;
  r.is_const = false;
  r.value = folded;
  // A valid variance floor for the max: the pairwise max of independent
  // normals shrinks the smaller operand variance by at most (1 - 1/pi) — the
  // symmetric-operand worst case (property-tested in stat_test). A 0.5
  // safety factor keeps the bound conservative. Floors matter: without them,
  // objective terms k*sqrt(var_Tmax) have unbounded derivative at var = 0 and
  // the optimizer dives into that spurious corner (see EXPERIMENTS.md).
  constexpr double kMaxShrink = 0.5 * (1.0 - 1.0 / 3.14159265358979323846);
  r.var_floor = kMaxShrink * std::min(a.var_floor, b.var_floor);
  r.mu_var = p().add_variable(-nlp::kInfinity, nlp::kInfinity, folded.mu, "muU_" + tag);
  r.var_var = p().add_variable(r.var_floor, nlp::kInfinity, folded.var, "varU_" + tag);

  // Slot order (muA, muB, varA, varB): live slots get variables, constant
  // slots are pinned inside the element.
  std::array<double, 4> fixed = {ClarkElement::kLive, ClarkElement::kLive, ClarkElement::kLive,
                                 ClarkElement::kLive};
  std::vector<int> vars;
  if (a.is_const) {
    fixed[0] = a.value.mu;
    fixed[2] = a.value.var;
  }
  if (b.is_const) {
    fixed[1] = b.value.mu;
    fixed[3] = b.value.var;
  }
  // Local argument order must match slot order: muA, muB, varA, varB
  // filtered down to live slots.
  if (!a.is_const) vars.push_back(a.mu_var);
  if (!b.is_const) vars.push_back(b.mu_var);
  if (!a.is_const) vars.push_back(a.var_var);
  if (!b.is_const) vars.push_back(b.var_var);

  const nlp::ElementFunction* mu_elem;
  const nlp::ElementFunction* var_elem;
  if (a.is_const || b.is_const) {
    mu_elem = p().own(std::make_unique<ClarkElement>(ClarkElement::Output::kMu, fixed));
    var_elem = p().own(std::make_unique<ClarkElement>(ClarkElement::Output::kVar, fixed));
  } else {
    mu_elem = clark_mu_;
    var_elem = clark_var_;
  }

  FunctionGroup g_mu;
  g_mu.linear = {{r.mu_var, 1.0}};
  g_mu.elements = {{mu_elem, vars, -1.0}};
  p().add_equality(std::move(g_mu));

  FunctionGroup g_var;
  g_var.linear = {{r.var_var, 1.0}};
  g_var.elements = {{var_elem, vars, -1.0}};
  p().add_equality(std::move(g_var));
  return r;
}

Operand Builder::nary_fanin_fold(NodeId gate) {
  const std::string& gate_name = view_.name(gate);
  // Split operands into a constant prefix (primary-input arrivals, folded at
  // build time) and the variable ones.
  bool has_const = false;
  NormalRV const_init{0.0, 0.0};
  std::vector<Operand> vars;
  for (NodeId f : view_.fanins(gate)) {
    const Operand op = operand_of(f);
    if (op.is_const) {
      const_init = has_const ? stat::clark_max(const_init, op.value) : op.value;
      has_const = true;
    } else {
      vars.push_back(op);
    }
  }
  if (vars.empty()) return Operand{true, const_init, -1, -1, 0.0};
  if (vars.size() == 1 && !has_const) return vars.front();
  if (static_cast<int>(vars.size()) > NaryClarkElement::kMaxOperands) {
    // Very wide gates: fall back to a pairwise chain beyond the element cap.
    Operand acc = has_const ? Operand{true, const_init, -1, -1, 0.0} : vars.front();
    for (std::size_t k = has_const ? 0 : 1; k < vars.size(); ++k) {
      acc = fold_max(acc, vars[k], gate_name + "_w" + std::to_string(k));
    }
    return acc;
  }

  ++out_.num_max_pairs;
  const int m = static_cast<int>(vars.size());
  // Start value and conservative variance floor of the whole fold.
  NormalRV start = has_const ? const_init : vars[0].value;
  double floor = has_const ? 0.0 : vars[0].var_floor;
  constexpr double kMaxShrink = 0.5 * (1.0 - 1.0 / 3.14159265358979323846);
  for (std::size_t k = has_const ? 0 : 1; k < vars.size(); ++k) {
    start = stat::clark_max(start, vars[k].value);
    floor = kMaxShrink * std::min(floor, vars[k].var_floor);
  }

  Operand r;
  r.is_const = false;
  r.value = start;
  r.var_floor = floor;
  r.mu_var = p().add_variable(-nlp::kInfinity, nlp::kInfinity, start.mu, "muU_" + gate_name);
  r.var_var = p().add_variable(floor, nlp::kInfinity, start.var, "varU_" + gate_name);

  std::vector<int> arg_vars;
  arg_vars.reserve(static_cast<std::size_t>(2 * m));
  for (const Operand& op : vars) arg_vars.push_back(op.mu_var);
  for (const Operand& op : vars) arg_vars.push_back(op.var_var);

  const nlp::ElementFunction* mu_elem = p().own(std::make_unique<NaryClarkElement>(
      ClarkElement::Output::kMu, m, has_const, const_init));
  const nlp::ElementFunction* var_elem = p().own(std::make_unique<NaryClarkElement>(
      ClarkElement::Output::kVar, m, has_const, const_init));

  FunctionGroup g_mu;
  g_mu.linear = {{r.mu_var, 1.0}};
  g_mu.elements = {{mu_elem, arg_vars, -1.0}};
  p().add_equality(std::move(g_mu));
  FunctionGroup g_var;
  g_var.linear = {{r.var_var, 1.0}};
  g_var.elements = {{var_elem, arg_vars, -1.0}};
  p().add_equality(std::move(g_var));
  return r;
}

FullSpaceFormulation Builder::build() {
  const std::size_t n = static_cast<std::size_t>(view_.num_nodes());
  if (start_speed_.size() != n) {
    throw std::invalid_argument("start_speed must be indexed by NodeId");
  }

  product_ = p().own(std::make_unique<nlp::ProductElement>());
  square_ = p().own(std::make_unique<nlp::SquareElement>());
  clark_mu_ = p().own(std::make_unique<ClarkElement>(ClarkElement::Output::kMu));
  clark_var_ = p().own(std::make_unique<ClarkElement>(ClarkElement::Output::kVar));

  // ---- Start values: forward propagation at start_speed.
  const ssta::DelayCalculator calc(view_, spec_.sigma_model);
  delay_start_ = calc.all_delays(start_speed_);
  arrival_start_.assign(n, NormalRV{});

  // ---- Pass 1: create all per-gate variables (fanout speed factors appear
  // in fanin delay constraints, so every S must exist up front).
  mu_t_var_.assign(n, -1);
  var_t_var_.assign(n, -1);
  mu_arr_var_.assign(n, -1);
  var_arr_var_.assign(n, -1);

  arr_var_floor_.assign(n, 0.0);
  const double kappa0 = spec_.sigma_model.kappa;
  const double offset0 = spec_.sigma_model.offset;
  for (NodeId id : view_.gates_in_topo_order()) {
    const std::size_t i = static_cast<std::size_t>(id);
    const std::string& name = view_.name(id);
    const double t_int = view_.t_int(id);
    // Physically valid bounds: the load is positive, so mu_t >= t_int; hence
    // var_t >= (kappa t_int + offset)^2, and the arrival variance is at least
    // the gate's own delay variance (var_T = var_U + var_t, var_U >= 0).
    // Beyond correctness these floors remove the spurious var -> 0 corner
    // that k*sqrt(var) objectives otherwise dive into.
    const double sigma_floor = kappa0 * t_int + offset0;
    const double var_floor = sigma_floor * sigma_floor;
    arr_var_floor_[i] = var_floor;
    out_.speed_var[i] =
        p().add_variable(1.0, spec_.max_speed, start_speed_[i], "S_" + name);
    mu_t_var_[i] =
        p().add_variable(t_int, nlp::kInfinity, delay_start_[i].mu, "mut_" + name);
    var_t_var_[i] =
        p().add_variable(var_floor, nlp::kInfinity, delay_start_[i].var, "vart_" + name);
    // Arrival starts are filled during pass 2 (they need fold ordering), but
    // the variables must exist; seed with delay for now and overwrite below.
    mu_arr_var_[i] = p().add_variable(0.0, nlp::kInfinity, 0.0, "muT_" + name);
    var_arr_var_[i] = p().add_variable(var_floor, nlp::kInfinity, 0.0, "varT_" + name);
  }

  // ---- Pass 2: constraints, in topological order.
  const double kappa = spec_.sigma_model.kappa;
  const double offset = spec_.sigma_model.offset;
  for (NodeId id : view_.gates_in_topo_order()) {
    const std::size_t i = static_cast<std::size_t>(id);
    const std::string& name = view_.name(id);

    // (a) delay: mu_t S - t_int S - c * C_load - sum c * C_in,fo * S_fo = 0.
    {
      FunctionGroup g;
      g.elements = {{product_, {mu_t_var_[i], out_.speed_var[i]}, 1.0}};
      g.linear.push_back({out_.speed_var[i], -view_.t_int(id)});
      const netlist::NodeSpan fanouts = view_.fanouts(id);
      const double* fo_cin = view_.fanout_cin(id);
      for (std::size_t k = 0; k < fanouts.size(); ++k) {
        g.linear.push_back({out_.speed_var[static_cast<std::size_t>(fanouts[k])],
                            -view_.drive_c(id) * fo_cin[k]});
      }
      g.constant = -view_.drive_c(id) * view_.static_load(id);
      p().add_equality(std::move(g));
    }

    // (b) sigma model: var_t - (kappa mu_t + offset)^2 = 0.
    {
      FunctionGroup g;
      g.linear = {{var_t_var_[i], 1.0}};
      if (kappa != 0.0) {
        g.elements = {{square_, {mu_t_var_[i]}, -kappa * kappa}};
        g.linear.push_back({mu_t_var_[i], -2.0 * kappa * offset});
      }
      g.constant = -offset * offset;
      p().add_equality(std::move(g));
    }

    // (c) arrival: U = fold over fanins; T = U + t. Either a chain of
    // pairwise maxima with aux variables (the paper's eq. 18b treatment) or,
    // with spec.nary_fanin_max, a single n-ary element (future-work mode).
    Operand u;
    if (spec_.nary_fanin_max) {
      u = nary_fanin_fold(id);
    } else {
      const netlist::NodeSpan fanins = view_.fanins(id);
      u = operand_of(fanins[0]);
      for (std::size_t k = 1; k < fanins.size(); ++k) {
        u = fold_max(u, operand_of(fanins[k]), name + "_" + std::to_string(k));
      }
    }
    arrival_start_[i] = stat::add(u.value, delay_start_[i]);
    p().set_start(mu_arr_var_[i], arrival_start_[i].mu);
    p().set_start(var_arr_var_[i], arrival_start_[i].var);
    {
      FunctionGroup g_mu;
      g_mu.linear = {{mu_arr_var_[i], 1.0}, {mu_t_var_[i], -1.0}};
      FunctionGroup g_var;
      g_var.linear = {{var_arr_var_[i], 1.0}, {var_t_var_[i], -1.0}};
      if (u.is_const) {
        g_mu.constant = -u.value.mu;
        g_var.constant = -u.value.var;
      } else {
        g_mu.linear.push_back({u.mu_var, -1.0});
        g_var.linear.push_back({u.var_var, -1.0});
      }
      p().add_equality(std::move(g_mu));
      p().add_equality(std::move(g_var));
    }
  }

  // ---- Circuit delay: statistical max over primary outputs (eq. 18a).
  const std::vector<NodeId>& outs = view_.outputs();
  Operand tmax = operand_of(outs.front());
  for (std::size_t k = 1; k < outs.size(); ++k) {
    tmax = fold_max(tmax, operand_of(outs[k]), "out_" + std::to_string(k));
  }
  out_.mu_tmax_var = tmax.mu_var;
  out_.var_tmax_var = tmax.var_var;

  // sigma_Tmax never becomes an NLP variable: mu + k sigma expressions embed
  // sqrt(var_Tmax) directly (see SqrtElement — the sigma^2 = var coupling has
  // a spurious first-order trap at sigma = 0), and pure sigma objectives use
  // var_Tmax, equivalent under sigma >= 0.
  // Floor the sqrt at a tenth of the build-time circuit variance — far below
  // anything sizing can reach, but enough to bound the derivative (see
  // nlp::SqrtElement).
  const nlp::ElementFunction* sqrt_elem =
      p().own(std::make_unique<nlp::SqrtElement>(0.1 * tmax.value.var));

  // ---- Objective.
  {
    FunctionGroup obj;
    switch (spec_.objective.kind) {
      case ObjectiveKind::kDelay:
        obj.linear.push_back({out_.mu_tmax_var, 1.0});
        if (spec_.objective.sigma_weight != 0.0) {
          obj.elements.push_back(
              {sqrt_elem, {out_.var_tmax_var}, spec_.objective.sigma_weight});
        }
        break;
      case ObjectiveKind::kArea:
        for (NodeId id : view_.gates_in_topo_order()) {
          obj.linear.push_back({out_.speed_var[static_cast<std::size_t>(id)], 1.0});
        }
        break;
      case ObjectiveKind::kSigma:
        obj.linear.push_back({out_.var_tmax_var, spec_.objective.sign});
        break;
      case ObjectiveKind::kWeighted:
        for (NodeId id : view_.gates_in_topo_order()) {
          obj.linear.push_back({out_.speed_var[static_cast<std::size_t>(id)],
                                spec_.objective.weights[static_cast<std::size_t>(id)]});
        }
        break;
    }
    p().set_objective(std::move(obj));
  }

  // ---- Delay constraint.
  if (spec_.delay_constraint) {
    const DelayConstraint& dc = *spec_.delay_constraint;
    FunctionGroup g;
    g.linear.push_back({out_.mu_tmax_var, 1.0});
    double start_value = tmax.value.mu;
    if (dc.sigma_weight != 0.0) {
      g.elements.push_back({sqrt_elem, {out_.var_tmax_var}, dc.sigma_weight});
      start_value += dc.sigma_weight * std::sqrt(tmax.value.var);
    }
    if (dc.equality) {
      g.constant = -dc.bound;
      p().add_equality(std::move(g));
    } else {
      p().add_inequality(std::move(g), dc.bound, dc.bound - start_value);
    }
  }

  p().validate();
  return std::move(out_);
}

}  // namespace

std::vector<double> FullSpaceFormulation::speeds_from(const std::vector<double>& x) const {
  std::vector<double> speeds(speed_var.size(), 1.0);
  for (std::size_t i = 0; i < speed_var.size(); ++i) {
    if (speed_var[i] >= 0) speeds[i] = x[static_cast<std::size_t>(speed_var[i])];
  }
  return speeds;
}

FullSpaceFormulation build_full_space(const netlist::TimingView& view, const SizingSpec& spec,
                                      const std::vector<double>& start_speed) {
  Builder b(view, spec, start_speed);
  return b.build();
}

FullSpaceFormulation build_full_space(const netlist::TimingView& view, const SizingSpec& spec,
                                      double start_speed) {
  const std::vector<double> s(static_cast<std::size_t>(view.num_nodes()),
                              std::clamp(start_speed, 1.0, spec.max_speed));
  return build_full_space(view, spec, s);
}

}  // namespace statsize::core
