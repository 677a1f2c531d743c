// High-level gate-sizing API — the facade a downstream user calls.
//
//   Circuit c = netlist::make_tree_circuit();
//   core::SizingSpec spec;
//   spec.objective = core::Objective::min_delay(3.0);   // min mu + 3 sigma
//   core::Sizer sizer(c, spec);
//   core::SizingResult r = sizer.run();
//   // r.speed[g], r.circuit_delay, r.sum_speed ...
//
// The Sizer runs on a TimingView: a Circuit passes as its compiled view, and
// an ECO-edited view copy (DESIGN.md §12) sizes the same way, with either
// method.
//
// Two solution methods are provided (DESIGN.md sec. 5.1):
//  * kFullSpace — the paper's formulation (eq. 17) solved with the
//    augmented-Lagrangian / trust-region stack, exactly as the authors used
//    LANCELOT. Every timing quantity is an NLP variable. The solve starts
//    from a cheap reduced-space pre-solve (the timing variables are
//    re-propagated, so the start is feasible), which saves most outer
//    iterations beyond toy circuits.
//  * kReducedSpace — speed factors only; timing evaluated by forward SSTA
//    with adjoint gradients, the delay constraint as the one constraint row.
//
// Both run the one outer loop, nlp::solve_augmented_lagrangian; only the
// inner minimizer differs (TRON vs bound-constrained L-BFGS).

#pragma once

#include <string>
#include <vector>

#include "core/spec.h"
#include "netlist/timing_view.h"
#include "runtime/cancel.h"
#include "stat/normal.h"

namespace statsize::core {

enum class Method { kFullSpace, kReducedSpace };

/// The method `--method auto` picks: the paper's full-space formulation up to
/// 300 gates, the reduced-space adjoint mode beyond (full space on
/// thousand-gate circuits reproduces the paper's hours-scale LANCELOT times,
/// see Table 1's CPU column).
Method auto_method(const netlist::TimingView& view);

struct SizerOptions {
  Method method = Method::kFullSpace;
  /// Final constraint-violation target of the outer loop. Full space judges
  /// its rows as built; reduced space judges the delay constraint relative to
  /// 1 + |D|, so the same tolerance fits 7-unit trees and 150-unit netlists.
  double feasibility_tol = 1e-6;
  double optimality_tol = 2e-4;
  int max_outer_iterations = 40;
  int max_inner_iterations = 3000;
  bool verbose = false;

  // ---- Resilience (DESIGN.md §9) ----
  /// Wall-clock budget for the whole run (0 = unlimited). The sizer installs
  /// a runtime::CancelScope; every solver loop and pool chunk polls it, so
  /// the solve stops within one chunk/iteration of the deadline and returns
  /// the best checkpoint with status ".../time-limit". The final SSTA runs
  /// outside the scope, so the returned sizing is always fully scored.
  double time_limit_seconds = 0.0;
  /// Optional external cancel flag (watchdog / signal handler), polled
  /// alongside the deadline.
  const runtime::CancellationToken* cancel = nullptr;
  /// Deterministic multistart retries after a numerical breakdown or stall:
  /// each retry restarts from seeded perturbed initial sizes with the initial
  /// penalty backed off (bounded), and the lexicographically best attempt
  /// wins. 0 disables; negative values make run/resize throw
  /// std::invalid_argument.
  int max_retries = 0;
};

/// Carry-over state from a previous solve of a nearby instance — the sizing
/// layer's warm start for ECO re-sizing (DESIGN.md §12). Every SizingResult
/// records one (`result.warm`); feed it to Sizer::resize after editing the
/// instance (via TimingView::update_node_params / clone_with_library) and the
/// solve starts from the old sizes and multiplier/penalty state instead of
/// re-estimating them from scratch, which is where the outer iterations are
/// saved. Empty/zero fields fall back to the cold defaults. The multipliers
/// and rho carry over only when the new problem has as many constraints as
/// there are multipliers; otherwise the resize starts from the speeds alone.
struct SizingWarmStart {
  std::vector<double> speed;        ///< per NodeId; empty = default start
  std::vector<double> multipliers;  ///< the outer loop's multipliers
  double rho = 0.0;                 ///< penalty parameter; <= 0 = cold default
};

struct SizingResult {
  bool converged = false;
  std::string status;               ///< solver status string
  std::vector<double> speed;        ///< per NodeId (1.0 for non-gates)
  stat::NormalRV circuit_delay;     ///< SSTA at the final sizes
  double sum_speed = 0.0;           ///< Tables' "sum S_i" column
  double area = 0.0;                ///< cell-area weighted
  double objective_value = 0.0;     ///< the spec objective alone, no penalty terms
  double constraint_violation = 0.0;
  int iterations = 0;               ///< total inner iterations
  int outer_iterations = 0;         ///< multiplier/penalty outer iterations
  /// Reduced-space L-BFGS work, summed over outer iterations and retries (a
  /// full-space run counts its reduced pre-solve): objective values (one
  /// taped forward sweep each) and gradients (one adjoint sweep each).
  int value_evals = 0;
  int gradient_evals = 0;
  double wall_seconds = 0.0;

  /// State to seed a follow-up resize of a perturbed instance from.
  SizingWarmStart warm;

  // ---- Resilience report (DESIGN.md §9) ----
  int retries_used = 0;             ///< multistart restarts consumed
  bool from_checkpoint = false;     ///< sizing restored from a best-iterate checkpoint
  int checkpoint_outer = -1;        ///< outer iteration the checkpoint was taken after
  std::string breakdown_site;       ///< tripwire detail on numerical breakdown, else ""

  /// mu + k sigma of the final circuit delay.
  double delay_metric(double sigma_weight) const {
    return circuit_delay.quantile_offset(sigma_weight);
  }
};

class Sizer {
 public:
  /// Sizes `view`: a Circuit's compiled view or an ECO-edited copy owned by
  /// an ssta::IncrementalEngine or a derived serve cache entry. The caller
  /// keeps `view` alive for this sizer's lifetime.
  Sizer(const netlist::TimingView& view, SizingSpec spec);

  /// Runs the optimization; `initial_speed` (indexed by NodeId) overrides the
  /// default start (S=1 for delay objectives; S=limit when a delay constraint
  /// must first be met).
  SizingResult run(const SizerOptions& options = {}) const;
  SizingResult run(const SizerOptions& options, const std::vector<double>& initial_speed) const;

  /// Re-solves after an ECO perturbation, warm-starting from a previous
  /// result's `warm` state (DESIGN.md §12): the old sizes become the start
  /// point and the outer loop resumes from the old multipliers and rho when
  /// they fit (see SizingWarmStart). On a nearby instance this converges in
  /// fewer outer iterations than `run` (pinned by tests). Full-space resizes
  /// additionally skip the reduced-space pre-solve — the warm sizes already
  /// play that role.
  SizingResult resize(const SizerOptions& options, const SizingWarmStart& warm) const;

  const SizingSpec& spec() const { return spec_; }

 private:
  SizingResult run_impl(const SizerOptions& options, const std::vector<double>& initial_speed,
                        const SizingWarmStart* warm) const;
  /// One solve from `start`. `rho_scale` backs the initial penalty off on
  /// retries after a penalty explosion (1.0 on the first attempt). `warm`
  /// (nullable) carries multiplier/penalty state into the outer loop.
  SizingResult run_full_space(const SizerOptions& options, const std::vector<double>& start,
                              double rho_scale, const SizingWarmStart* warm) const;
  SizingResult run_reduced_space(const SizerOptions& options, const std::vector<double>& start,
                                 double rho_scale, const SizingWarmStart* warm) const;
  std::vector<double> default_start() const;
  void finish(SizingResult& result) const;

  const netlist::TimingView* view_;
  SizingSpec spec_;
};

}  // namespace statsize::core
