// Projected L-BFGS for bound-constrained smooth minimization.
//
// Used by the reduced-space sizing mode, where the only variables are the
// speed factors S in [1, limit] and the objective/constraint values come from
// a forward SSTA sweep with adjoint gradients (no cheap Hessian available —
// hence quasi-Newton instead of the Newton-CG machinery in tron.h).
//
// The direction is an active-set (two-metric projection) quasi-Newton step,
// the way LANCELOT treats the paper's speed box. A coordinate is active when
// it sits at a bound and its gradient points out of the box (x_i <= lo_i and
// g_i > 0, or x_i >= hi_i and g_i < 0); it gets d_i = 0. The L-BFGS two-loop
// recursion, its gamma scaling included, runs with every dot product
// restricted to the free coordinates, and a stored pair whose restricted s.y
// is not safely positive is skipped for that iteration. The Armijo search then
// backtracks along the projected path P(x + a d). Without the restriction,
// the projection of a full-space step clips the active coordinates and
// often leaves no descent at any step length, which throws the curvature
// pairs away; with it the solver keeps them (`restarts` counts the
// steepest-descent retries that remain).
//
// The objective is split: the Armijo backtracking needs only f at each trial
// point, so a rejected trial costs one value() call (one forward sweep in
// the sizer), and gradient() runs once at the start point and once per
// accepted step.

#pragma once

#include <functional>
#include <vector>

namespace statsize::nlp {

/// Split objective. value(x) returns f(x); gradient(g) fills g (resized to
/// x.size()) with the gradient at the point of the most recent value() call.
/// The solver calls gradient() only right after value() at the start point
/// and at each accepted iterate, so value() may keep whatever state
/// gradient() needs.
struct LbfgsObjective {
  std::function<double(const std::vector<double>&)> value;
  std::function<void(std::vector<double>&)> gradient;
};

struct LbfgsOptions {
  double tol = 1e-6;  ///< projected-gradient infinity norm
  int max_iterations = 500;
};

struct LbfgsResult {
  double objective = 0.0;
  double projected_gradient = 0.0;
  int iterations = 0;
  bool converged = false;
  int value_evals = 0;     ///< value() calls: start point + every line-search trial
  int gradient_evals = 0;  ///< gradient() calls: start point + every accepted step
  int restarts = 0;        ///< steepest-descent retries after a failed quasi-Newton search
};

LbfgsResult minimize_projected_lbfgs(const LbfgsObjective& fn, std::vector<double>& x,
                                     const std::vector<double>& lower,
                                     const std::vector<double>& upper,
                                     const LbfgsOptions& options = {});

}  // namespace statsize::nlp
