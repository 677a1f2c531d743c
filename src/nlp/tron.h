// Bound-constrained trust-region Newton-CG minimizer (TRON-style: projected
// Cauchy point, then truncated conjugate gradients on the free variables).
// This is the subproblem solver LANCELOT-class augmented Lagrangian methods
// rely on; it consumes analytic Hessian-vector products through SmoothModel.

#pragma once

#include <vector>

#include "nlp/model.h"

namespace statsize::nlp {

struct TrustRegionOptions {
  double tol = 1e-6;            ///< projected-gradient infinity-norm target
  int max_iterations = 200;
};

struct TrustRegionResult {
  double objective = 0.0;
  double projected_gradient = 0.0;
  int iterations = 0;
  bool converged = false;  ///< projected gradient met tol (vs budget/stall)
};

/// Minimizes `model` over the box [lower, upper], starting and ending in `x`.
TrustRegionResult minimize_bound_constrained(SmoothModel& model, std::vector<double>& x,
                                             const std::vector<double>& lower,
                                             const std::vector<double>& upper,
                                             const TrustRegionOptions& options = {});

/// ||P(x - g) - x||_inf — the standard bound-constrained stationarity measure.
double projected_gradient_norm(const std::vector<double>& x, const std::vector<double>& grad,
                               const std::vector<double>& lower, const std::vector<double>& upper);

}  // namespace statsize::nlp
