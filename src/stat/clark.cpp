#include "stat/clark.h"

#include <cmath>

namespace statsize::stat {

NormalRV detail::degenerate_max(const NormalRV& a, const NormalRV& b, ClarkGrad* grad) {
  if (a.mu > b.mu) return winner(a, b, true, grad);
  if (b.mu > a.mu) return winner(a, b, false, grad);
  if (grad != nullptr) {
    *grad = ClarkGrad{};
    grad->dmu[0] = grad->dmu[1] = 0.5;
    grad->dvar[2] = grad->dvar[3] = 0.5;
  }
  return {a.mu, 0.5 * (a.var + b.var)};
}

NormalRV clark_max_full(const NormalRV& a, const NormalRV& b, ClarkGrad& grad, ClarkHess& hess) {
  using D4 = autodiff::Dual2<4>;
  D4 mu_out;
  D4 var_out;
  clark_max_dual(D4::variable(a.mu, 0), D4::variable(b.mu, 1), D4::variable(a.var, 2),
                 D4::variable(b.var, 3), mu_out, var_out);
  grad.dmu = mu_out.grad_array();
  grad.dvar = var_out.grad_array();
  hess.mu = mu_out.hess_array();
  hess.var = var_out.hess_array();
  NormalRV out{mu_out.value(), var_out.value()};
  if (out.var < 0.0) out.var = 0.0;
  return out;
}

NormalRV clark_max_correlated(const NormalRV& a, const NormalRV& b, double cov,
                              double* tightness) {
  const double theta2 = a.var + b.var - 2.0 * cov;
  if (theta2 <= kThetaFloorSq) {
    // (Nearly) perfectly correlated with equal variance: the larger mean wins
    // surely; at a tie the operands are the same random variable.
    if (tightness != nullptr) *tightness = a.mu > b.mu ? 1.0 : (b.mu > a.mu ? 0.0 : 0.5);
    if (a.mu >= b.mu) return a;
    return b;
  }
  const double gap = a.mu - b.mu;
  if (dominated(gap, theta2)) {
    if (tightness != nullptr) *tightness = gap > 0.0 ? 1.0 : 0.0;
    return gap > 0.0 ? a : b;
  }
  const double theta = std::sqrt(theta2);
  const double alpha = gap / theta;
  const auto [cdf_p, cdf_m, pdf] = normal_terms(alpha);
  if (tightness != nullptr) *tightness = cdf_p;

  // Mean-centered evaluation as in clark_moments; the cross term of E[C^2]
  // picks up the covariance: E[C^2] = (varA + muA^2) Phi + (varB + muB^2)
  // Phi(-a) + (muA + muB) theta phi  holds verbatim with the correlated
  // theta; centering removes the large-mean cancellation.
  const double c = 0.5 * gap;
  const double mu_centered = c * (cdf_p - cdf_m) + theta * pdf;
  NormalRV out;
  out.mu = 0.5 * (a.mu + b.mu) + mu_centered;
  out.var = (a.var + c * c) * cdf_p + (b.var + c * c) * cdf_m - mu_centered * mu_centered;
  if (out.var < 0.0) out.var = 0.0;
  return out;
}

NormalRV clark_min(const NormalRV& a, const NormalRV& b) {
  const NormalRV neg = clark_max({-a.mu, a.var}, {-b.mu, b.var});
  return {-neg.mu, neg.var};
}

}  // namespace statsize::stat
