// Analytic moments of C = max(A, B) for independent normals A, B — the core
// mathematical contribution of the paper (sec. 3, eqs. 10, 12, 13; derived in
// its Appendix A; originally due to Clark, 1961).
//
// Writing theta = sqrt(varA + varB) and alpha = (muA - muB) / theta, with
// Phi/phi the standard-normal CDF/PDF:
//
//   mu_C   = muA Phi(alpha) + muB Phi(-alpha) + theta phi(alpha)        (10)
//   E[C^2] = (varA + muA^2) Phi(alpha) + (varB + muB^2) Phi(-alpha)
//            + (muA + muB) theta phi(alpha)                             (12)
//   var_C  = E[C^2] - mu_C^2                                            (13)
//
// These expressions — unlike the sampling approach of the paper's
// predecessors — admit exact first and second derivatives with respect to
// (muA, muB, varA, varB), which is what makes gate sizing under the
// statistical delay model a well-posed smooth NLP.
//
// Numerical notes:
//  * var_C is evaluated in mean-centered form (shift both means by their
//    midpoint; the variance is shift-invariant and the cross term vanishes),
//    avoiding the catastrophic cancellation of E[C^2] - mu_C^2 when
//    |mu| >> sigma.
//  * theta -> 0 degenerates to the deterministic max; below kThetaFloor the
//    exact limit (with subgradient choice at ties) is returned.

#pragma once

#include <array>

#include "autodiff/dual2.h"
#include "stat/normal.h"

namespace statsize::stat {

/// Below this value of theta^2 = varA + varB the max is treated as
/// deterministic. The sizing formulations keep all variance variables above
/// 1e-10, so optimization never lands in the degenerate branch; it exists so
/// that analysis code (SSTA with zero-sigma elements) is still exact.
inline constexpr double kThetaFloorSq = 1e-24;

/// Derivatives are ordered [d/d muA, d/d muB, d/d varA, d/d varB].
struct ClarkGrad {
  std::array<double, 4> dmu{};
  std::array<double, 4> dvar{};
};

/// Packed 4x4 symmetric Hessians (upper triangle, row-major; see
/// autodiff::Dual2::hess_index for the layout).
struct ClarkHess {
  std::array<double, 10> mu{};
  std::array<double, 10> var{};
};

/// Moments only (fast path used by the SSTA engine).
NormalRV clark_max(const NormalRV& a, const NormalRV& b);

/// Moments plus hand-derived analytic gradient (fast path used for adjoint /
/// reduced-space differentiation and for NLP constraint Jacobians).
NormalRV clark_max_grad(const NormalRV& a, const NormalRV& b, ClarkGrad& grad);

/// Moments, gradient and exact Hessians (second-order forward autodiff over
/// the closed-form expressions; used for NLP constraint Hessians).
NormalRV clark_max_full(const NormalRV& a, const NormalRV& b, ClarkGrad& grad, ClarkHess& hess);

/// Clark's formulas for *correlated* jointly normal operands with
/// Cov(A, B) = cov — the generalization the paper's future-work section asks
/// for ("dealing with correlations between stochastic variables in the
/// circuit, as a result of reconverging paths"). Only theta changes:
///
///   theta = sqrt(varA + varB - 2 cov)
///
/// (Clark 1961, eqs. 2-4). Degenerates to the deterministic max as the
/// operands become perfectly correlated with equal variance (theta -> 0).
/// Also fills `tightness` (Phi(alpha) = P(A > B), the linear mixing weight
/// canonical-form SSTA uses) when non-null.
NormalRV clark_max_correlated(const NormalRV& a, const NormalRV& b, double cov,
                              double* tightness = nullptr);

/// Statistical minimum via min(A, B) = -max(-A, -B): the operator backward
/// (required-time) propagation needs. Independent operands.
NormalRV clark_min(const NormalRV& a, const NormalRV& b);

/// Generic evaluator shared by the double fast path and the Dual2 Hessian
/// path. T must support +,-,*,/, sqrt(), normal_cdf(), normal_pdf().
/// Requires varA + varB > 0 (the caller handles the degenerate branch).
template <class T>
void clark_moments(const T& mu_a, const T& mu_b, const T& var_a, const T& var_b,
                   T& mu_out, T& var_out) {
  using std::sqrt;                             // double path
  using statsize::autodiff::sqrt;              // Dual2 path (also via ADL)
  const T theta = sqrt(var_a + var_b);
  const T gap = mu_a - mu_b;
  const T alpha = gap / theta;
  const T cdf_p = normal_cdf(alpha);
  const T cdf_m = normal_cdf(-alpha);
  const T pdf = normal_pdf(alpha);
  // Mean-centered evaluation: c = (muA - muB)/2 so that cA = c, cB = -c and
  // the (cA + cB) theta phi cross-term of eq. 12 vanishes identically.
  const T c = gap * 0.5;
  const T mu_centered = c * (cdf_p - cdf_m) + theta * pdf;
  mu_out = (mu_a + mu_b) * 0.5 + mu_centered;
  var_out = (var_a + c * c) * cdf_p + (var_b + c * c) * cdf_m - mu_centered * mu_centered;
}

}  // namespace statsize::stat
