// Augmented Lagrangian method — the same algorithm family as LANCELOT
// (Conn–Gould–Toint): bound constraints are handled by an inner minimizer,
// equality constraints by the multiplier/penalty outer loop
//
//   Psi(x; lambda, rho) = f(x) - sum_j lambda_j c_j(x) + (rho/2) sum_j c_j(x)^2
//
// with the classic update schedule (Nocedal & Wright, Alg. 17.4): when the
// inner solve ends sufficiently feasible, first-order multiplier update
// lambda <- lambda - rho c and tightened tolerances; otherwise rho increases.
//
// This outer loop is the one place multipliers and penalties change; the
// inner minimizer is its parameter: TRON over AugLagModel for element
// Problems, projected L-BFGS for the reduced-space sizer (DESIGN.md §5).
//
// For element Problems the Hessian information is assembled from the
// per-element analytic Hessians:
//
//   H_Psi v = H_f v + sum_j (rho c_j - lambda_j) H_{c_j} v
//             + rho sum_j (grad c_j . v) grad c_j
//
// which is exactly why the paper needed closed-form second derivatives of the
// statistical max operator.

#pragma once

#include <functional>
#include <string>
#include <vector>

#include "nlp/model.h"
#include "nlp/problem.h"

namespace statsize::nlp {

struct AugLagOptions {
  double initial_rho = 10.0;
  double feasibility_tol = 1e-7;   ///< final ||c||_inf target
  double optimality_tol = 1e-6;    ///< final projected-gradient target
  int max_outer_iterations = 40;
  int max_inner_iterations = 400;  ///< trust-region iterations per subproblem
  bool verbose = false;
};

enum class SolveStatus {
  kConverged,       ///< feasibility and first-order optimality tolerances met
  kAcceptable,      ///< feasible and objective stagnant, but the inner solver
                    ///< could not certify first-order optimality (typically
                    ///< ill-conditioning near an active-bound solution)
  kMaxIterations,   ///< outer budget exhausted; best iterate returned
  kStalled,         ///< inner solver made no progress while infeasible
  kTimeLimit,       ///< a runtime::CancelScope deadline/cancel fired; the
                    ///< best checkpoint seen is returned (DESIGN.md §9)
  kNumericalBreakdown,  ///< a non-finite evaluation tripwire fired; the best
                        ///< checkpoint is returned and `breakdown_site` names
                        ///< the offending element/constraint
};

struct SolveResult {
  SolveStatus status = SolveStatus::kMaxIterations;
  std::vector<double> x;
  std::vector<double> multipliers;
  double objective = 0.0;
  double constraint_violation = 0.0;
  double projected_gradient = 0.0;
  int outer_iterations = 0;
  int inner_iterations = 0;
  double final_rho = 0.0;

  // Resilience provenance (meaningful for kTimeLimit / kNumericalBreakdown,
  // where the returned iterate is the best checkpoint rather than the last
  // point the inner solver touched).
  bool from_checkpoint = false;  ///< x restored from the best-iterate checkpoint
  int checkpoint_outer = -1;     ///< outer iteration the checkpoint was taken
                                 ///< after (-1 = the clamped start point)
  std::string breakdown_site;    ///< EvalBreakdown tripwire detail, else empty

  bool ok() const {
    return status == SolveStatus::kConverged || status == SolveStatus::kAcceptable;
  }
  std::string status_string() const;
};

/// Carry-over state from a previous solve of a *nearby* problem (an ECO
/// perturbation of the instance) — the multiplier/penalty warm start the
/// sizing layer threads through Sizer::resize (DESIGN.md §12). Empty fields
/// fall back to the cold defaults: empty `x` → the problem's start (then
/// clamped to bounds, as always), empty `multipliers` → zeros, `rho` <= 0 →
/// options.initial_rho. Non-empty fields must match the problem's dimensions
/// and every value must be finite (std::invalid_argument otherwise). Reusing
/// converged multipliers near the old solution lets the outer loop start at
/// (or near) the correct first-order point instead of re-estimating lambda
/// from zero, which is where the ECO resize saves its outer iterations.
struct WarmStart {
  std::vector<double> x;
  std::vector<double> multipliers;
  double rho = 0.0;  ///< <= 0 means options.initial_rho
};

/// The outer loop's view of a problem in LANCELOT's canonical shape:
/// minimize f(x) subject to c(x) = 0 and lower <= x <= upper. An inequality
/// enters as an equality with a slack coordinate in [0, inf).
struct OuterProblem {
  std::vector<double> lower;
  std::vector<double> upper;
  std::vector<double> start;
  int num_constraints = 0;
  /// Returns f(x) and fills c (resized to num_constraints) with c(x).
  std::function<double(const std::vector<double>& x, std::vector<double>& c)> eval;
};

/// What an inner solve reports of the point it leaves in x.
struct InnerResult {
  int iterations = 0;
  double projected_gradient = 0.0;
};

/// The bound-constrained inner minimizer: minimizes Psi(x; multipliers, rho)
/// over the box from and into `x`, only ever storing accepted steps there,
/// until its projected gradient is at most `tol` or `max_iterations` pass.
using InnerMinimizer =
    std::function<InnerResult(std::vector<double>& x, const std::vector<double>& multipliers,
                              double rho, double tol, int max_iterations)>;

/// Solves an element `problem` from the warm start (see WarmStart; the
/// default is a cold start from problem.start()). The inner minimizer is
/// TRON over AugLagModel.
SolveResult solve_augmented_lagrangian(const Problem& problem, const AugLagOptions& options = {},
                                       const WarmStart& warm = {});

/// The outer loop itself, over any problem and inner minimizer. With no
/// constraint there is no multiplier to estimate, so it runs one inner solve
/// at the final optimality tolerance.
SolveResult solve_augmented_lagrangian(const OuterProblem& problem, const InnerMinimizer& minimize,
                                       const AugLagOptions& options, const WarmStart& warm);

/// The Psi model of an element Problem — TRON's objective inside the outer
/// loop, exposed for the audit, tests and benchmarks.
class AugLagModel final : public SmoothModel {
 public:
  AugLagModel(const Problem& problem, std::vector<double> multipliers, double rho);

  int num_vars() const override { return problem_->num_vars(); }

  /// Psi and (optionally) its gradient. Constraint groups are evaluated
  /// into per-constraint storage first and accumulated in constraint order
  /// afterwards (see DESIGN.md §7).
  double eval(const std::vector<double>& x, std::vector<double>* grad) override;

  /// Hessian-vector product from the element snapshots: a serial scatter
  /// over the snapshots, then the Gauss-Newton constraint terms.
  void hess_vec(const std::vector<double>& v, std::vector<double>& hv) const override;

  void set_rho(double rho) { rho_ = rho; }
  void set_multipliers(std::vector<double> m) { multipliers_ = std::move(m); }
  double rho() const { return rho_; }
  const std::vector<double>& multipliers() const { return multipliers_; }
  const std::vector<double>& constraint_values() const { return c_; }

 private:
  struct ElementSnapshot {
    const ElementFunction* fn;
    const int* vars;
    double weight;       ///< group weight at snapshot time (incl. y_j factor)
    double* hess;        ///< packed Hessian storage
  };

  const Problem* problem_;
  std::vector<double> multipliers_;
  double rho_;

  // Snapshot state for hess_vec (refreshed on every gradient evaluation).
  // Constraint j owns the snapshot slice starting at snap_offset_[j].
  std::vector<double> c_;                       ///< constraint values
  std::vector<ElementSnapshot> snapshots_;      ///< all elements with weights
  std::vector<std::size_t> snap_offset_;        ///< constraint j's first snapshot
  std::vector<double> hess_storage_;            ///< packed Hessians, contiguous
  std::vector<std::vector<int>> cgrad_idx_;     ///< sparse grad c_j indices
  std::vector<std::vector<double>> cgrad_val_;  ///< sparse grad c_j values
};

}  // namespace statsize::nlp
