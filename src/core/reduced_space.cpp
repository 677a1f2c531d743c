#include "core/reduced_space.h"

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "netlist/timing_view.h"
#include "ssta/propagate.h"
#include "ssta/ssta.h"
#include "stat/clark.h"

namespace statsize::core {

using netlist::NodeId;
using stat::ClarkGrad;
using stat::NormalRV;

// The persistent forward tape (DESIGN.md §12): everything the adjoint sweep
// reads, kept across calls so an incremental forward only rewrites the
// recomputed cone's slices. `steps` slices are preassigned per gate
// (structure-only), so a partial rewrite cannot shift any other gate's
// slice.
struct ReducedEvaluator::ForwardCache {
  // Structure-only, built once per evaluator.
  bool structure_built = false;
  std::vector<std::size_t> step_begin;  ///< NodeId -> first step slot
  std::size_t out_step_begin = 0;
  std::vector<ClarkGrad> steps;

  // Tape state from the last forward sweep.
  bool valid = false;
  std::uint64_t view_epoch = 0;  ///< view.epoch() when the tape was written
  std::vector<double> speed;
  std::vector<NormalRV> arrival;
  std::vector<NormalRV> delay;

  // Edits declared via note_edits since the last sweep.
  std::vector<NodeId> noted;
  std::vector<unsigned char> noted_mask;
  std::uint64_t noted_epoch = 0;

  ssta::ConeWorklist cone;  ///< persistent to avoid per-call allocation

  std::size_t last_recomputes = 0;

  // Adjoint scratch (arrival mu/var adjoints), reused across adjoint calls.
  std::vector<double> amu;
  std::vector<double> avar;
};

ReducedEvaluator::ReducedEvaluator(const netlist::TimingView& view, ssta::SigmaModel sigma_model)
    : view_(&view), sigma_model_(sigma_model) {}

ReducedEvaluator::~ReducedEvaluator() = default;

NormalRV ReducedEvaluator::eval(const std::vector<double>& speed) const {
  const ssta::DelayCalculator calc(*view_, sigma_model_);
  return ssta::run_ssta(calc, speed).circuit_delay;
}

void ReducedEvaluator::note_edits(const std::vector<NodeId>& nodes) {
  const netlist::TimingView& view = *view_;
  if (!fwd_) fwd_ = std::make_unique<ForwardCache>();
  ForwardCache& f = *fwd_;
  const std::size_t n = static_cast<std::size_t>(view.num_nodes());
  if (f.noted_mask.size() != n) f.noted_mask.assign(n, 0);
  for (NodeId u : nodes) {
    if (u < 0 || u >= static_cast<NodeId>(n)) {
      throw std::invalid_argument("ReducedEvaluator::note_edits: node " + std::to_string(u) +
                                  " is out of range");
    }
    unsigned char& m = f.noted_mask[static_cast<std::size_t>(u)];
    if (!m) {
      m = 1;
      f.noted.push_back(u);
    }
  }
  f.noted_epoch = view.epoch();
}

void ReducedEvaluator::invalidate() {
  if (!fwd_) return;
  fwd_->valid = false;
  for (NodeId u : fwd_->noted) fwd_->noted_mask[static_cast<std::size_t>(u)] = 0;
  fwd_->noted.clear();
}

std::size_t ReducedEvaluator::last_forward_recomputes() const {
  return fwd_ ? fwd_->last_recomputes : 0;
}

NormalRV ReducedEvaluator::taped_forward(const std::vector<double>& speed) const {
  const netlist::TimingView& view = *view_;
  const std::size_t n = static_cast<std::size_t>(view.num_nodes());
  if (speed.size() != n) throw std::invalid_argument("speed must be indexed by NodeId");
  if (!fwd_) fwd_ = std::make_unique<ForwardCache>();
  ForwardCache& f = *fwd_;
  const std::vector<NodeId>& outs = view.outputs();

  if (!f.structure_built) {
    f.step_begin.assign(n, 0);
    std::size_t gate_steps = 0;
    for (NodeId id : view.gates_in_topo_order()) {
      const netlist::NodeSpan fanins = view.fanins(id);
      if (fanins.empty()) {
        // Unreachable through the public builders (CellLibrary rejects cells
        // with num_inputs < 1 and the BLIF reader maps zero-fanin .names to
        // auxiliary inputs), but a fanin-less gate would underflow the
        // step-slice arithmetic below — fail loudly instead.
        throw std::invalid_argument("ReducedEvaluator::taped_forward: gate '" + view.name(id) +
                                    "' has no fanins; its arrival fold is undefined");
      }
      f.step_begin[static_cast<std::size_t>(id)] = gate_steps;
      gate_steps += fanins.size() - 1;
    }
    f.out_step_begin = gate_steps;
    f.steps.resize(gate_steps + outs.size() - 1);
    if (f.noted_mask.size() != n) f.noted_mask.assign(n, 0);
    f.cone = ssta::ConeWorklist(view);
    f.structure_built = true;
  }

  const ssta::DelayCalculator calc(view, sigma_model_);

  // Incremental is sound only when the tape is valid AND every view edit
  // since the tape was written is accounted for: either the epoch is
  // unchanged (speed-diff dirt only) or note_edits was called after the last
  // edit (noted_epoch caught up). An un-noted edit leaves noted_epoch
  // behind and forces a cold tape.
  const std::uint64_t cur_epoch = view.epoch();
  const bool incremental =
      f.valid && f.speed.size() == n &&
      (cur_epoch == f.view_epoch || (!f.noted.empty() && cur_epoch == f.noted_epoch));
  // Until the sweep completes, the tape is neither a base for the cone path
  // nor something adjoint() may read.
  f.valid = false;

  if (!incremental) {
    // Cold tape: every delay computed and every gate seeded unconditionally
    // — a gate whose delay equals the zeroed slot bit for bit must still
    // fold its fanins and record its steps.
    f.arrival.assign(n, NormalRV{});
    f.delay.assign(n, NormalRV{});
    for (NodeId g : view.gates_in_topo_order()) {
      f.delay[static_cast<std::size_t>(g)] = calc.delay(g, speed);
      f.cone.seed(view, g);
    }
  } else {
    // Delay-dirty set: speed-diff gates and noted nodes, each widened by its
    // gate fanins (a driver's load carries the edited gate's c_in * S term).
    for (NodeId g : view.gates_in_topo_order()) {
      const std::size_t i = static_cast<std::size_t>(g);
      if (std::memcmp(&speed[i], &f.speed[i], sizeof(double)) != 0) f.cone.mark_edit(view, g);
    }
    for (NodeId u : f.noted) f.cone.mark_edit(view, u);
    f.cone.recompute_dirty(view, [&](NodeId g) {
      const NormalRV d = calc.delay(g, speed);
      NormalRV& slot = f.delay[static_cast<std::size_t>(g)];
      if (ssta::same_bits(d, slot)) return false;
      slot = d;
      return true;
    });
  }

  // Refold the seeded cone level by level, recording each gate's steps into
  // its own slice (operand A = the running accumulator). A gate not refolded
  // has bitwise-identical fanin arrivals, hence an identical slice already.
  f.last_recomputes = f.cone.drain(view, [&](NodeId g) {
    const std::size_t i = static_cast<std::size_t>(g);
    ClarkGrad* steps = f.steps.data() + f.step_begin[i];
    const NormalRV u = ssta::fold_max(
        view.fanins(g), f.arrival, [&](const NormalRV& a, const NormalRV& b, std::size_t k) {
          return stat::clark_max_grad(a, b, steps[k - 1]);
        });
    const NormalRV a = stat::add(u, f.delay[i]);
    if (ssta::same_bits(a, f.arrival[i])) return false;
    f.arrival[i] = a;
    return true;
  });

  // The primary-output fold is always re-recorded (it is O(outputs) and its
  // operand-A accumulator depends on every output's arrival).
  ClarkGrad* out_steps = f.steps.data() + f.out_step_begin;
  const NormalRV tmax = ssta::fold_max(
      outs, f.arrival, [&](const NormalRV& a, const NormalRV& b, std::size_t k) {
        return stat::clark_max_grad(a, b, out_steps[k - 1]);
      });

  f.speed = speed;
  f.view_epoch = cur_epoch;
  for (NodeId u : f.noted) f.noted_mask[static_cast<std::size_t>(u)] = 0;
  f.noted.clear();
  f.valid = true;
  return tmax;
}

void ReducedEvaluator::adjoint(const std::vector<double>& speed, double seed_mu,
                               double seed_var, std::vector<double>& grad) const {
  const netlist::TimingView& view = *view_;
  const bool taped_here = fwd_ && fwd_->valid && fwd_->view_epoch == view.epoch() &&
                          speed.size() == fwd_->speed.size() &&
                          std::memcmp(speed.data(), fwd_->speed.data(),
                                      speed.size() * sizeof(double)) == 0;
  if (!taped_here) {
    throw std::logic_error(
        "ReducedEvaluator::adjoint: no forward tape at this speed vector (call "
        "taped_forward(speed) first; edits and invalidate() drop the tape)");
  }
  ForwardCache& f = *fwd_;
  const std::size_t n = static_cast<std::size_t>(view.num_nodes());
  const std::vector<NodeId>& outs = view.outputs();

  grad.assign(n, 0.0);
  f.amu.assign(n, 0.0);   // adjoint of arrival mu
  f.avar.assign(n, 0.0);  // adjoint of arrival var
  std::vector<double>& amu = f.amu;
  std::vector<double>& avar = f.avar;

  // Back through one recorded fold_max, last step first. The accumulator
  // adjoint flows backward through operand-A slots; operand B feeds each
  // node.
  auto unfold = [&](const auto& nodes, const ClarkGrad* steps, double acc_mu, double acc_var) {
    for (std::size_t k = nodes.size(); k-- > 1;) {
      const ClarkGrad& g = steps[k - 1];
      const std::size_t b = static_cast<std::size_t>(nodes[k]);
      amu[b] += acc_mu * g.dmu[1] + acc_var * g.dvar[1];
      avar[b] += acc_mu * g.dmu[3] + acc_var * g.dvar[3];
      const double new_mu = acc_mu * g.dmu[0] + acc_var * g.dvar[0];
      const double new_var = acc_mu * g.dmu[2] + acc_var * g.dvar[2];
      acc_mu = new_mu;
      acc_var = new_var;
    }
    amu[static_cast<std::size_t>(nodes[0])] += acc_mu;
    avar[static_cast<std::size_t>(nodes[0])] += acc_var;
  };
  unfold(outs, f.steps.data() + f.out_step_begin, seed_mu, seed_var);

  // Through the gates, highest level first: a gate's amu/avar are final once
  // every fanout (always at a strictly higher level) has run. Every
  // per-target accumulation happens in this fixed order, so the gradient is
  // the same double at any thread count.
  const double kappa = sigma_model_.kappa;
  const double offset = sigma_model_.offset;
  for (int l = view.num_levels(); l-- > 0;) {
    for (NodeId id : view.level_gates(l)) {
      const std::size_t i = static_cast<std::size_t>(id);
      const double a_mu = amu[i];
      const double a_var = avar[i];
      if (a_mu == 0.0 && a_var == 0.0) continue;

      // T = U + t: gate-delay adjoints equal the arrival adjoints.
      // var_t = (kappa mu_t + offset)^2 chains var sensitivity onto mu_t.
      const double sigma_t = kappa * f.delay[i].mu + offset;
      const double adj_mu_t = a_mu + a_var * 2.0 * kappa * sigma_t;

      // mu_t = t_int + c * load / S: sensitivities to this gate's own S and
      // to every fanout's S (their pins are part of the load). The per-edge
      // sink pin capacitances are the view's precomputed fanout_cin array —
      // the same doubles the load dot product reads.
      const double drive_c = view.drive_c(id);
      const double s_own = speed[i];
      const double load = view.load_capacitance(id, speed.data());
      grad[i] += adj_mu_t * (-drive_c * load / (s_own * s_own));
      const netlist::NodeSpan fanouts = view.fanouts(id);
      const double* fo_cin = view.fanout_cin(id);
      for (std::size_t k = 0; k < fanouts.size(); ++k) {
        grad[static_cast<std::size_t>(fanouts[k])] += adj_mu_t * drive_c * fo_cin[k] / s_own;
      }

      unfold(view.fanins(id), f.steps.data() + f.step_begin[i], a_mu, a_var);
    }
  }
}

NormalRV ReducedEvaluator::eval_with_grad(const std::vector<double>& speed, double seed_mu,
                                          double seed_var, std::vector<double>& grad) const {
  const NormalRV tmax = taped_forward(speed);
  adjoint(speed, seed_mu, seed_var, grad);
  return tmax;
}

double ReducedEvaluator::eval_metric(const std::vector<double>& speed, double sigma_weight,
                                     std::vector<double>* grad) const {
  if (grad == nullptr) {
    const NormalRV t = eval(speed);
    return t.mu + sigma_weight * t.sigma();
  }
  // d(mu + k sigma) = d mu + k/(2 sigma) d var; the seed comes from the
  // taped sweep's own Tmax, which equals eval(speed) bit for bit.
  const NormalRV t = taped_forward(speed);
  const double sigma = t.sigma();
  const double seed_var =
      (sigma_weight != 0.0 && sigma > 1e-12) ? sigma_weight / (2.0 * sigma) : 0.0;
  adjoint(speed, 1.0, seed_var, *grad);
  return t.mu + sigma_weight * sigma;
}

}  // namespace statsize::core
