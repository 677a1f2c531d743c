// Reduced-space evaluation of the sizing objectives: the speed factors S are
// the only free variables; arrival statistics are *functions* of S computed
// by a forward SSTA sweep, and gradients come from one reverse (adjoint)
// sweep through the same computation graph using the hand-derived Clark
// derivatives.
//
// This is not the paper's formulation (which keeps all timing quantities as
// NLP variables — see full_space.h); it is the ablation partner (DESIGN.md
// sec. 5.1) and the scalability mode: the optimizer only sees |gates|
// variables. The evaluation is split in two: taped_forward() is one forward
// sweep that records the tape and returns Tmax (a value-only line-search
// trial needs nothing more), and adjoint() is one reverse sweep over that
// tape, run only where the optimizer accepts the point.
//
// Both sweeps are serial (DESIGN.md §7), so results are equal at any thread
// count. The evaluator keeps its forward tape (arrivals, delays, recorded
// Clark steps) across calls (DESIGN.md §12): the forward sweep is one
// ssta::ConeWorklist walk that refolds only the cone of the gates whose
// speed moved, and a gate not refolded has bitwise-identical fanin arrivals,
// hence identical cached steps, so the gradient is bit-identical to a cold
// one. A cold tape is the same walk with every gate marked; an edit bumps
// view.epoch(), and a tape of another epoch is never reused.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/spec.h"
#include "netlist/timing_view.h"
#include "ssta/delay_model.h"
#include "stat/normal.h"

namespace statsize::core {

class ReducedEvaluator {
 public:
  /// Evaluates against `view`: a Circuit's compiled view (a Circuit converts
  /// to it) or an ECO-edited copy owned by an IncrementalEngine or a derived
  /// serve cache entry. The caller keeps `view` alive (and does not move it)
  /// for this evaluator's lifetime.
  ReducedEvaluator(const netlist::TimingView& view, ssta::SigmaModel sigma_model);

  ~ReducedEvaluator();

  /// Forward sweep only: the circuit-delay distribution at `speed`.
  /// Stateless (does not consult or update the gradient tape).
  stat::NormalRV eval(const std::vector<double>& speed) const;

  /// Forward sweep recording the tape adjoint() reads; returns Tmax, equal
  /// bit for bit to eval(speed) (clark_max_grad and clark_max share their
  /// moment arithmetic, and the fold order is the same). A sizing line
  /// search calls this once per trial point and derives f and the adjoint
  /// seeds from the returned Tmax.
  ///
  /// A zero-fanin gate (no arrival to fold) is rejected with
  /// std::invalid_argument naming it instead of underflowing the step-slice
  /// arithmetic. (A view always has primary outputs: finalize() rejects a
  /// circuit without them.)
  ///
  /// Not safe for concurrent calls on one instance: the forward tape is
  /// cached across calls.
  stat::NormalRV taped_forward(const std::vector<double>& speed) const;

  /// Reverse sweep over the tape of the last taped_forward, which must have
  /// run at this same `speed`: fills `grad` (indexed by NodeId; non-gate
  /// entries 0) with the gradient of
  ///     seed_mu * mu_Tmax + seed_var * var_Tmax
  /// with respect to every speed factor. Linear combinations cover all
  /// objectives: e.g. d(mu + k sigma)/dS uses seed_mu = 1,
  /// seed_var = k / (2 sigma). Throws std::logic_error when there is no
  /// tape at `speed` (never taped, other point, invalidate(), view edits).
  void adjoint(const std::vector<double>& speed, double seed_mu, double seed_var,
               std::vector<double>& grad) const;

  /// taped_forward(speed) then adjoint(speed, seed_mu, seed_var, grad);
  /// returns Tmax.
  stat::NormalRV eval_with_grad(const std::vector<double>& speed, double seed_mu,
                                double seed_var, std::vector<double>& grad) const;

  /// mu + k * sigma, and its gradient when `grad` is non-null: one taped
  /// forward sweep, whose own Tmax seeds the adjoint (no separate sigma
  /// probe).
  double eval_metric(const std::vector<double>& speed, double sigma_weight,
                     std::vector<double>* grad) const;

  /// Drops the forward tape; the next taped_forward builds a cold one.
  void invalidate();

  /// Gates whose arrival fold actually ran in the last taped_forward
  /// sweep (== num_gates for a cold tape) — the observable
  /// "gradient re-eval scales with cone size" contract.
  std::size_t last_forward_recomputes() const;

 private:
  struct ForwardCache;

  const netlist::TimingView* view_;
  ssta::SigmaModel sigma_model_;
  mutable std::unique_ptr<ForwardCache> fwd_;    ///< lazy; forward tape
};

}  // namespace statsize::core
