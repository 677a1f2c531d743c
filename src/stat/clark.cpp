#include "stat/clark.h"

#include <cmath>

namespace statsize::stat {

namespace {

/// Exact limit of the max for theta -> 0: the deterministic max, with the
/// convention that derivatives split 50/50 at an exact tie (a subgradient of
/// the nonsmooth limit).
NormalRV degenerate_max(const NormalRV& a, const NormalRV& b, ClarkGrad* grad, ClarkHess* hess) {
  if (hess != nullptr) *hess = ClarkHess{};
  if (grad != nullptr) *grad = ClarkGrad{};
  if (a.mu > b.mu) {
    if (grad != nullptr) {
      grad->dmu[0] = 1.0;
      grad->dvar[2] = 1.0;
    }
    return a;
  }
  if (b.mu > a.mu) {
    if (grad != nullptr) {
      grad->dmu[1] = 1.0;
      grad->dvar[3] = 1.0;
    }
    return b;
  }
  if (grad != nullptr) {
    grad->dmu[0] = grad->dmu[1] = 0.5;
    grad->dvar[2] = grad->dvar[3] = 0.5;
  }
  return {a.mu, 0.5 * (a.var + b.var)};
}

}  // namespace

NormalRV clark_max(const NormalRV& a, const NormalRV& b) {
  if (a.var + b.var <= kThetaFloorSq) return degenerate_max(a, b, nullptr, nullptr);
  NormalRV out;
  clark_moments(a.mu, b.mu, a.var, b.var, out.mu, out.var);
  if (out.var < 0.0) out.var = 0.0;  // guard rounding at extreme |alpha|
  return out;
}

NormalRV clark_max_grad(const NormalRV& a, const NormalRV& b, ClarkGrad& grad) {
  if (a.var + b.var <= kThetaFloorSq) return degenerate_max(a, b, &grad, nullptr);

  const double theta2 = a.var + b.var;
  const double theta = std::sqrt(theta2);
  const double gap = a.mu - b.mu;
  const double alpha = gap / theta;
  const auto [cdf_p, cdf_m, pdf] = normal_terms(alpha);

  const double c = 0.5 * gap;
  const double mu_centered = c * (cdf_p - cdf_m) + theta * pdf;
  NormalRV out;
  out.mu = 0.5 * (a.mu + b.mu) + mu_centered;
  out.var = (a.var + c * c) * cdf_p + (b.var + c * c) * cdf_m - mu_centered * mu_centered;
  if (out.var < 0.0) out.var = 0.0;

  // d mu / d(.) — the classic Clark results: Phi(alpha), Phi(-alpha),
  // phi(alpha)/(2 theta) for each variance.
  grad.dmu[0] = cdf_p;
  grad.dmu[1] = cdf_m;
  grad.dmu[2] = pdf / (2.0 * theta);
  grad.dmu[3] = grad.dmu[2];

  // d var / d(.), written with mean differences so no large-magnitude
  // cancellation occurs (see header).
  //   d var/d muA = 2 Phi(alpha)(muA - muC) + phi (theta + (varA - varB)/theta)
  //   d var/d varA = Phi(alpha)
  //                  + phi ((muA + muB - 2 muC)/(2 theta) - alpha (varA - varB)/(2 theta^2))
  //   d var/d varB is identical except Phi(-alpha) replaces Phi(alpha): alpha
  //   depends on the variances only through theta, which is symmetric in them.
  const double dvab = a.var - b.var;
  const double mu_a_minus = a.mu - out.mu;  // = c - mu_centered
  const double mu_b_minus = b.mu - out.mu;  // = -c - mu_centered
  grad.dvar[0] = 2.0 * cdf_p * mu_a_minus + pdf * (theta + dvab / theta);
  grad.dvar[1] = 2.0 * cdf_m * mu_b_minus + pdf * (theta - dvab / theta);
  const double common = -2.0 * mu_centered / (2.0 * theta);  // (muA+muB-2muC)/(2 theta)
  const double skew = alpha * dvab / (2.0 * theta2);
  grad.dvar[2] = cdf_p + pdf * (common - skew);
  grad.dvar[3] = cdf_m + pdf * (common - skew);
  return out;
}

NormalRV clark_max_full(const NormalRV& a, const NormalRV& b, ClarkGrad& grad, ClarkHess& hess) {
  if (a.var + b.var <= kThetaFloorSq) return degenerate_max(a, b, &grad, &hess);

  using D4 = autodiff::Dual2<4>;
  const D4 mu_a = D4::variable(a.mu, 0);
  const D4 mu_b = D4::variable(b.mu, 1);
  const D4 var_a = D4::variable(a.var, 2);
  const D4 var_b = D4::variable(b.var, 3);
  D4 mu_out;
  D4 var_out;
  clark_moments(mu_a, mu_b, var_a, var_b, mu_out, var_out);

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
  const double theta = std::sqrt(theta2);
  const double gap = a.mu - b.mu;
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
