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
//  * Dominance exit: after the theta floor, once |alpha| >= 9 — tested as
//    (muA - muB)^2 >= 81 (varA + varB), with no square root or division —
//    every evaluator returns the dominant operand bit for bit, with gradient
//    1 on its own mu/var slots, 0 elsewhere, and a zero Hessian. There
//    phi(alpha) < 1.1e-18 and Phi(-alpha) < 1.2e-19: the dominated operand
//    moves mu_C by about theta phi(alpha) / alpha^2 (< 1.3e-20 theta) and
//    var_C by a relative (phi(alpha) / alpha)(2 + 2 r / alpha^2), r the
//    dominated operand's variance over the dominant one's (< 2.5e-18 for
//    r <= 1e3). That is less than half an ulp of the dominant operand's
//    moments unless its |mu| is below ~1e-4 theta. The formula instead pays
//    the rounding of the centered means and a (varA + c^2) Phi -
//    mu_centered^2 cancellation that loses up to log2(c^2 / varA) bits of
//    var_C. clark_derivative_test checks, against a long double evaluation,
//    that the exit is never less accurate than the formula it skips.
//  * Phi(alpha), Phi(-alpha) and phi(alpha) come from one call of
//    normal_terms (normal.h): one shared exponential and Cody's rational
//    approximations, the smaller tail to <= 2.5e-13 relative for
//    |alpha| <= 37.5 and Phi to <= 2.2e-16 absolute. Every evaluator below,
//    the Dual2 Hessian path included, takes its terms from that kernel and
//    passes the same two guards, so clark_max, clark_max_grad,
//    clark_max_full and clark_max_dual agree bit for bit. clark_max and
//    clark_max_grad are defined in this header and forced inline, with
//    clark_moments, so that every fold inlines the whole kernel (at -O2 GCC
//    otherwise keeps clark_moments<double> out of line in the sweeps); code
//    outside src/stat reaches clark_moments only through the evaluators.

#pragma once

#include <array>
#include <cmath>

#include "autodiff/dual2.h"
#include "stat/normal.h"

namespace statsize::stat {

/// Below this value of theta^2 = varA + varB the max is treated as
/// deterministic. The sizing formulations keep all variance variables above
/// 1e-10, so optimization never lands in the degenerate branch; it exists so
/// that analysis code (SSTA with zero-sigma elements) is still exact.
inline constexpr double kThetaFloorSq = 1e-24;

/// alpha^2 at and beyond which one operand dominates: the dominance exit's
/// bound, |alpha| >= 9 (see the numerical notes above).
inline constexpr double kDominanceAlphaSq = 81.0;

/// True when |gap| >= 9 theta, where gap = muA - muB and theta2 = theta^2.
/// A NaN fails the test, so it still propagates through the formula.
inline bool dominated(double gap, double theta2) {
  return gap * gap >= kDominanceAlphaSq * theta2;
}

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

/// normal_terms for second-order forward autodiff: the values come from the
/// double kernel, the derivatives from Phi' = phi, phi' = -x phi and
/// phi'' = (x^2 - 1) phi.
template <int N>
NormalTerms<autodiff::Dual2<N>> normal_terms(const autodiff::Dual2<N>& x) {
  using D = autodiff::Dual2<N>;
  const double v = x.value();
  const NormalTerms<double> t = normal_terms(v);
  const double dpdf = -v * t.pdf;
  return {D::apply_unary(x, t.cdf, t.pdf, dpdf), D::apply_unary(x, t.ccdf, -t.pdf, -dpdf),
          D::apply_unary(x, t.pdf, dpdf, (v * v - 1.0) * t.pdf)};
}

/// Generic evaluator shared by the double fast path and the Dual2 Hessian
/// path. T must support +,-,*,/, sqrt() and normal_terms().
/// Requires varA + varB > 0 (the caller handles the degenerate branch) and
/// applies no dominance exit: call it through the evaluators below.
template <class T>
[[gnu::always_inline]] inline void clark_moments(const T& mu_a, const T& mu_b, const T& var_a,
                                                 const T& var_b, T& mu_out, T& var_out) {
  using std::sqrt;                             // double path
  using statsize::autodiff::sqrt;              // Dual2 path (also via ADL)
  const T theta = sqrt(var_a + var_b);
  const T gap = mu_a - mu_b;
  const T alpha = gap / theta;
  const auto [cdf_p, cdf_m, pdf] = normal_terms(alpha);
  // Mean-centered evaluation: c = (muA - muB)/2 so that cA = c, cB = -c and
  // the (cA + cB) theta phi cross-term of eq. 12 vanishes identically.
  const T c = gap * 0.5;
  const T mu_centered = c * (cdf_p - cdf_m) + theta * pdf;
  mu_out = (mu_a + mu_b) * 0.5 + mu_centered;
  var_out = (var_a + c * c) * cdf_p + (var_b + c * c) * cdf_m - mu_centered * mu_centered;
}

namespace detail {

/// The max when one operand surely wins: that operand, with gradient 1 on
/// its own mu/var slots, 0 elsewhere, and a zero Hessian.
inline NormalRV winner(const NormalRV& a, const NormalRV& b, bool a_wins, ClarkGrad* grad) {
  if (grad != nullptr) {
    *grad = ClarkGrad{};
    grad->dmu[a_wins ? 0 : 1] = 1.0;
    grad->dvar[a_wins ? 2 : 3] = 1.0;
  }
  return a_wins ? a : b;
}

/// Exact limit of the max for theta -> 0: the deterministic max, with the
/// convention that derivatives split 50/50 at an exact tie (a subgradient of
/// the nonsmooth limit).
NormalRV degenerate_max(const NormalRV& a, const NormalRV& b, ClarkGrad* grad);

}  // namespace detail

/// Moments only (fast path used by the SSTA engine).
[[gnu::always_inline]] inline NormalRV clark_max(const NormalRV& a, const NormalRV& b) {
  const double theta2 = a.var + b.var;
  if (theta2 <= kThetaFloorSq) return detail::degenerate_max(a, b, nullptr);
  const double gap = a.mu - b.mu;
  if (dominated(gap, theta2)) return gap > 0.0 ? a : b;
  NormalRV out;
  clark_moments(a.mu, b.mu, a.var, b.var, out.mu, out.var);
  if (out.var < 0.0) out.var = 0.0;  // guard rounding at large |alpha|
  return out;
}

/// Moments plus hand-derived analytic gradient (fast path used for adjoint /
/// reduced-space differentiation and for NLP constraint Jacobians).
[[gnu::always_inline]] inline NormalRV clark_max_grad(const NormalRV& a, const NormalRV& b,
                                                      ClarkGrad& grad) {
  const double theta2 = a.var + b.var;
  if (theta2 <= kThetaFloorSq) return detail::degenerate_max(a, b, &grad);
  const double gap = a.mu - b.mu;
  if (dominated(gap, theta2)) return detail::winner(a, b, gap > 0.0, &grad);

  const double theta = std::sqrt(theta2);
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

/// One pairwise max over second-order duals, behind the same theta floor and
/// dominance exit as the double evaluators: the body of clark_max_full and
/// the step of an n-ary autodiff fold (core::NaryClarkElement). A floor or
/// exit result is the winner's dual (at a floor tie, the operands' mean), so
/// derivatives pass through the winner unchanged.
template <int N>
void clark_max_dual(const autodiff::Dual2<N>& mu_a, const autodiff::Dual2<N>& mu_b,
                    const autodiff::Dual2<N>& var_a, const autodiff::Dual2<N>& var_b,
                    autodiff::Dual2<N>& mu_out, autodiff::Dual2<N>& var_out) {
  const double theta2 = var_a.value() + var_b.value();
  const double gap = mu_a.value() - mu_b.value();
  const bool degenerate = theta2 <= kThetaFloorSq;
  if (degenerate && !(gap > 0.0 || gap < 0.0)) {  // a tie at the floor
    mu_out = mu_a + (mu_b - mu_a) * 0.5;           // exactly muA
    var_out = (var_a + var_b) * 0.5;
  } else if (degenerate || dominated(gap, theta2)) {
    mu_out = gap > 0.0 ? mu_a : mu_b;
    var_out = gap > 0.0 ? var_a : var_b;
  } else {
    clark_moments(mu_a, mu_b, var_a, var_b, mu_out, var_out);
  }
}

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
/// canonical-form SSTA uses) when non-null; past the dominance exit it is
/// exactly 1 or 0.
NormalRV clark_max_correlated(const NormalRV& a, const NormalRV& b, double cov,
                              double* tightness = nullptr);

/// Statistical minimum via min(A, B) = -max(-A, -B): the operator backward
/// (required-time) propagation needs. Independent operands.
NormalRV clark_min(const NormalRV& a, const NormalRV& b);

}  // namespace statsize::stat
