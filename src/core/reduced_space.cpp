#include "core/reduced_space.h"

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "netlist/timing_view.h"
#include "runtime/level_schedule.h"
#include "runtime/runtime.h"
#include "ssta/ssta.h"
#include "stat/clark.h"

namespace statsize::core {

using netlist::NodeId;
using netlist::NodeKind;
using stat::ClarkGrad;
using stat::NormalRV;

namespace {

/// Bitwise moment comparison — the incremental sweep's propagation-
/// termination predicate (see IncrementalEngine; same rationale).
bool same_bits(const NormalRV& a, const NormalRV& b) {
  return std::memcmp(&a.mu, &b.mu, sizeof(double)) == 0 &&
         std::memcmp(&a.var, &b.var, sizeof(double)) == 0;
}

}  // namespace

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

  // Worklist scratch (persistent to avoid per-call allocation).
  std::vector<NodeId> dirty;
  std::vector<unsigned char> dirty_mask;
  std::vector<std::vector<NodeId>> bucket;  ///< per gate level
  std::vector<unsigned char> queued_mask;

  std::size_t last_recomputes = 0;

  // Adjoint scratch (arrival mu/var adjoints), reused across adjoint calls.
  std::vector<double> amu;
  std::vector<double> avar;
};

ReducedEvaluator::ReducedEvaluator(const netlist::Circuit& circuit, ssta::SigmaModel sigma_model)
    : circuit_(&circuit), sigma_model_(sigma_model) {}

ReducedEvaluator::ReducedEvaluator(const netlist::TimingView& view, ssta::SigmaModel sigma_model)
    : view_(&view), sigma_model_(sigma_model) {}

ReducedEvaluator::~ReducedEvaluator() = default;

const netlist::Circuit& ReducedEvaluator::circuit() const {
  if (circuit_ == nullptr) {
    throw std::logic_error(
        "ReducedEvaluator::circuit: evaluator was constructed from a bare "
        "TimingView (ECO edit path) and has no backing Circuit");
  }
  return *circuit_;
}

const netlist::TimingView& ReducedEvaluator::resolve_view() const {
  return circuit_ != nullptr ? circuit_->view() : *view_;
}

NormalRV ReducedEvaluator::eval(const std::vector<double>& speed) const {
  const ssta::DelayCalculator calc(resolve_view(), sigma_model_);
  return ssta::run_ssta(calc, speed).circuit_delay;
}

void ReducedEvaluator::note_edits(const std::vector<NodeId>& nodes) {
  const netlist::TimingView& view = resolve_view();
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
  const std::size_t n =
      static_cast<std::size_t>(circuit_ != nullptr ? circuit_->num_nodes() : view_->num_nodes());
  if (speed.size() != n) throw std::invalid_argument("speed must be indexed by NodeId");
  // Guard before view(): an output-less circuit cannot survive finalize(), so
  // this diagnostic must fire pre-finalize (core_test pins it).
  if ((circuit_ != nullptr ? circuit_->outputs() : view_->outputs()).empty()) {
    throw std::invalid_argument(
        "ReducedEvaluator::taped_forward: circuit has no primary outputs, so the "
        "circuit delay (and its gradient) is undefined");
  }
  const netlist::TimingView& view = resolve_view();
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
        const std::string name =
            circuit_ != nullptr ? circuit_->node(id).name : "gate#" + std::to_string(id);
        throw std::invalid_argument("ReducedEvaluator::taped_forward: gate '" + name +
                                    "' has no fanins; its arrival fold is undefined");
      }
      f.step_begin[static_cast<std::size_t>(id)] = gate_steps;
      gate_steps += fanins.size() - 1;
    }
    f.out_step_begin = gate_steps;
    f.steps.resize(gate_steps + outs.size() - 1);
    if (f.noted_mask.size() != n) f.noted_mask.assign(n, 0);
    f.dirty_mask.assign(n, 0);
    f.queued_mask.assign(n, 0);
    f.bucket.assign(static_cast<std::size_t>(view.num_levels()), {});
    f.structure_built = true;
  }

  const ssta::DelayCalculator calc(view, sigma_model_);

  // Records gate `id`'s fold into the tape. Fold convention everywhere:
  // operand A = running accumulator, operand B = the new fanin/output
  // arrival. A gate writes only arrival/delay[i] and its own step slice and
  // reads strictly-lower-level arrivals, so the full sweep can run
  // level-parallel with bit-identical results; the incremental path below
  // reuses the identical per-gate arithmetic serially.
  auto eval_gate = [&](NodeId id) {
    const netlist::NodeSpan fanins = view.fanins(id);
    const std::size_t i = static_cast<std::size_t>(id);
    NormalRV u = f.arrival[static_cast<std::size_t>(fanins[0])];
    for (std::size_t k = 1; k < fanins.size(); ++k) {
      ClarkGrad g;
      u = stat::clark_max_grad(u, f.arrival[static_cast<std::size_t>(fanins[k])], g);
      f.steps[f.step_begin[i] + (k - 1)] = g;
    }
    f.delay[i] = calc.delay(id, speed);
    f.arrival[i] = stat::add(u, f.delay[i]);
  };

  // Incremental is sound only when the tape is valid AND every view edit
  // since the tape was written is accounted for: either the epoch is
  // unchanged (speed-diff dirt only) or note_edits was called after the last
  // edit (noted_epoch caught up). An un-noted edit leaves noted_epoch
  // behind and forces the full resweep.
  const std::uint64_t cur_epoch = view.epoch();
  const bool incremental =
      f.valid && f.speed.size() == n &&
      (cur_epoch == f.view_epoch || (!f.noted.empty() && cur_epoch == f.noted_epoch));
  // A cancel poll in the pooled sweep can unwind mid-rewrite; until the
  // sweep completes, the tape is neither a base for the cone path nor
  // something adjoint() may read.
  f.valid = false;

  if (!incremental) {
    f.arrival.assign(n, NormalRV{});
    f.delay.assign(n, NormalRV{});
    const bool parallel =
        runtime::threads() > 1 && view.num_gates() >= ssta::kParallelGateCutoff;
    if (parallel) {
      runtime::LevelSchedule(view).for_each_gate(ssta::kGateGrain, eval_gate);
    } else {
      for (NodeId id : view.gates_in_topo_order()) eval_gate(id);
    }
    f.last_recomputes = static_cast<std::size_t>(view.num_gates());
  } else {
    // Delay-dirty set: speed-diff gates and noted nodes, each widened by its
    // gate fanins (a driver's load carries the edited gate's c_in * S term).
    f.dirty.clear();
    auto mark = [&](NodeId g) {
      if (!view.is_gate(g)) return;
      unsigned char& m = f.dirty_mask[static_cast<std::size_t>(g)];
      if (!m) {
        m = 1;
        f.dirty.push_back(g);
      }
    };
    for (NodeId g : view.gates_in_topo_order()) {
      const std::size_t i = static_cast<std::size_t>(g);
      if (std::memcmp(&speed[i], &f.speed[i], sizeof(double)) != 0) {
        mark(g);
        for (NodeId fi : view.fanins(g)) mark(fi);
      }
    }
    for (NodeId u : f.noted) {
      mark(u);
      for (NodeId fi : view.fanins(u)) mark(fi);
    }
    // Recompute dirty delays; a bitwise-changed delay seeds the worklist.
    for (NodeId g : f.dirty) {
      const std::size_t i = static_cast<std::size_t>(g);
      f.dirty_mask[i] = 0;
      const NormalRV d = calc.delay(g, speed);
      if (!same_bits(d, f.delay[i])) {
        f.delay[i] = d;
        if (!f.queued_mask[i]) {
          f.queued_mask[i] = 1;
          f.bucket[static_cast<std::size_t>(view.level(g) - 1)].push_back(g);
        }
      }
    }
    f.dirty.clear();

    // Level-ordered cone repropagation (serial: the cone is the small case
    // this path exists for; a gate not refolded keeps its bitwise-identical
    // tape slice). A changed arrival enqueues the gate's fanouts — always at
    // strictly higher levels, so the bucket being drained never grows.
    std::size_t recomputes = 0;
    const int num_levels = view.num_levels();
    for (int l = 0; l < num_levels; ++l) {
      std::vector<NodeId>& bucket = f.bucket[static_cast<std::size_t>(l)];
      if (bucket.empty()) continue;
      for (std::size_t bi = 0; bi < bucket.size(); ++bi) {
        const NodeId g = bucket[bi];
        const std::size_t i = static_cast<std::size_t>(g);
        f.queued_mask[i] = 0;
        const NormalRV before = f.arrival[i];
        eval_gate(g);
        ++recomputes;
        if (same_bits(before, f.arrival[i])) continue;
        for (NodeId fo : view.fanouts(g)) {
          const std::size_t o = static_cast<std::size_t>(fo);
          if (!f.queued_mask[o]) {
            f.queued_mask[o] = 1;
            f.bucket[static_cast<std::size_t>(view.level(fo) - 1)].push_back(fo);
          }
        }
      }
      bucket.clear();
    }
    f.last_recomputes = recomputes;
  }

  // The primary-output fold is always re-recorded (it is O(outputs) and its
  // operand-A accumulator depends on every output's arrival).
  NormalRV tmax = f.arrival[static_cast<std::size_t>(outs[0])];
  for (std::size_t k = 1; k < outs.size(); ++k) {
    ClarkGrad g;
    tmax = stat::clark_max_grad(tmax, f.arrival[static_cast<std::size_t>(outs[k])], g);
    f.steps[f.out_step_begin + (k - 1)] = g;
  }

  f.speed = speed;
  f.view_epoch = cur_epoch;
  for (NodeId u : f.noted) f.noted_mask[static_cast<std::size_t>(u)] = 0;
  f.noted.clear();
  f.valid = true;
  return tmax;
}

void ReducedEvaluator::adjoint(const std::vector<double>& speed, double seed_mu,
                               double seed_var, std::vector<double>& grad) const {
  const netlist::TimingView& view = resolve_view();
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

  // Through the primary-output fold (reverse order). The accumulator adjoint
  // flows backward through operand-A slots; operand-B feeds each output.
  {
    double acc_mu = seed_mu;
    double acc_var = seed_var;
    for (std::size_t k = outs.size(); k-- > 1;) {
      const ClarkGrad& g = f.steps[f.out_step_begin + (k - 1)];
      const std::size_t o = static_cast<std::size_t>(outs[k]);
      amu[o] += acc_mu * g.dmu[1] + acc_var * g.dvar[1];
      avar[o] += acc_mu * g.dmu[3] + acc_var * g.dvar[3];
      const double new_mu = acc_mu * g.dmu[0] + acc_var * g.dvar[0];
      const double new_var = acc_mu * g.dmu[2] + acc_var * g.dvar[2];
      acc_mu = new_mu;
      acc_var = new_var;
    }
    amu[static_cast<std::size_t>(outs[0])] += acc_mu;
    avar[static_cast<std::size_t>(outs[0])] += acc_var;
  }

  // Through the gates, highest level first: a gate's amu/avar are final once
  // every fanout (always at a strictly higher level) has run. Every
  // per-target accumulation happens in this fixed order, so the gradient is
  // the same double at any thread count (the sweep is serial; only the
  // forward sweep uses the pool).
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

      // Through this gate's fanin fold, reverse order.
      double acc_mu = a_mu;
      double acc_var = a_var;
      const netlist::NodeSpan fanins = view.fanins(id);
      for (std::size_t k = fanins.size(); k-- > 1;) {
        const ClarkGrad& g = f.steps[f.step_begin[i] + (k - 1)];
        const std::size_t fk = static_cast<std::size_t>(fanins[k]);
        amu[fk] += acc_mu * g.dmu[1] + acc_var * g.dvar[1];
        avar[fk] += acc_mu * g.dmu[3] + acc_var * g.dvar[3];
        const double new_mu = acc_mu * g.dmu[0] + acc_var * g.dvar[0];
        const double new_var = acc_mu * g.dmu[2] + acc_var * g.dvar[2];
        acc_mu = new_mu;
        acc_var = new_var;
      }
      amu[static_cast<std::size_t>(fanins[0])] += acc_mu;
      avar[static_cast<std::size_t>(fanins[0])] += acc_var;
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
