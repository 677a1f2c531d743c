// Normal-distribution primitives used throughout the statistical delay model.
//
// The paper (sec. 3) models every schedule time T and gate delay t as a
// normally distributed random variable characterized by (mu, sigma). The NLP
// formulation carries *variances* (sigma^2) rather than standard deviations
// (sec. 4, "we also use only the squared version of standard deviations"),
// so NormalRV stores (mu, var).

#pragma once

#include <cmath>

namespace statsize::stat {

inline constexpr double kInvSqrt2Pi = 0.39894228040143267794;
inline constexpr double kInvSqrt2 = 0.70710678118654752440;
inline constexpr double kSqrt2Pi = 2.50662827463100050242;

/// Standard-normal probability density function (eq. 8 with mu=0, sigma=1).
inline double normal_pdf(double x) { return kInvSqrt2Pi * std::exp(-0.5 * x * x); }

/// Phi(x), Phi(-x) and phi(x) of one argument: the three terms every Clark
/// max (eqs. 10-13) takes from alpha. `cdf` is the phi(x) of eq. 11
/// normalized by 1/sqrt(2 pi).
template <class T>
struct NormalTerms {
  T cdf;   ///< Phi(x)
  T ccdf;  ///< Phi(-x) = 1 - Phi(x)
  T pdf;   ///< phi(x)
};

// The kernel is defined in this header so that every Clark evaluator inlines
// it: it is the innermost operation of every sweep.
namespace detail {

// W. J. Cody, "Rational Chebyshev approximations for the error function",
// Math. Comp. 23 (1969), as coded in his CALERF: erf on y <= 0.5 (kErfP /
// kErfQ, in y^2), the complementary function over exp(-y^2) on 0.5 < y <= 4
// (kMidP / kMidQ, in y) and its asymptotic form for y > 4 (kAsyP / kAsyQ,
// in 1/y^2).
inline constexpr double kErfP[5] = {3.16112374387056560e00, 1.13864154151050156e02,
                                    3.77485237685302021e02, 3.20937758913846947e03,
                                    1.85777706184603153e-1};
inline constexpr double kErfQ[4] = {2.36012909523441209e01, 2.44024637934444173e02,
                                    1.28261652607737228e03, 2.84423683343917062e03};
inline constexpr double kMidP[9] = {5.64188496988670089e-1, 8.88314979438837594e00,
                                    6.61191906371416295e01, 2.98635138197400131e02,
                                    8.81952221241769090e02, 1.71204761263407058e03,
                                    2.05107837782607147e03, 1.23033935479799725e03,
                                    2.15311535474403846e-8};
inline constexpr double kMidQ[8] = {1.57449261107098347e01, 1.17693950891312499e02,
                                    5.37181101862009858e02, 1.62138957456669019e03,
                                    3.29079923573345963e03, 4.36261909014324716e03,
                                    3.43936767414372164e03, 1.23033935480374942e03};
inline constexpr double kAsyP[6] = {3.05326634961232344e-1, 3.60344899949804439e-1,
                                    1.25781726111229246e-1, 1.60837851487422766e-2,
                                    6.58749161529837803e-4, 1.63153871373020978e-2};
inline constexpr double kAsyQ[5] = {2.56852019228982242e00, 1.87295284992346725e00,
                                    5.27905102951428412e-1, 6.05183413124413191e-2,
                                    2.33520497626869185e-3};
inline constexpr double kInvSqrtPi = 0.56418958354775628695;

/// Phi(-|x|), the smaller tail, given e = exp(-x^2 / 2).
inline double normal_tail(double x, double e) {
  const double y = std::abs(x) * kInvSqrt2;
  if (y <= 0.5) {
    const double ysq = y * y;
    double num = kErfP[4] * ysq;
    double den = ysq;
    for (int i = 0; i < 3; ++i) {
      num = (num + kErfP[i]) * ysq;
      den = (den + kErfQ[i]) * ysq;
    }
    return 0.5 - 0.5 * (y * (num + kErfP[3]) / (den + kErfQ[3]));
  }
  if (y <= 4.0) {
    double num = kMidP[8] * y;
    double den = y;
    for (int i = 0; i < 7; ++i) {
      num = (num + kMidP[i]) * y;
      den = (den + kMidQ[i]) * y;
    }
    return 0.5 * e * ((num + kMidP[7]) / (den + kMidQ[7]));
  }
  const double ysq = 1.0 / (y * y);
  double num = kAsyP[5] * ysq;
  double den = ysq;
  for (int i = 0; i < 4; ++i) {
    num = (num + kAsyP[i]) * ysq;
    den = (den + kAsyQ[i]) * ysq;
  }
  return 0.5 * e * ((kInvSqrtPi - ysq * (num + kAsyP[4]) / (den + kAsyQ[4])) / y);
}

}  // namespace detail

/// The one Phi/phi kernel. One exponential, e = exp(-x^2 / 2), gives phi(x)
/// (bitwise normal_pdf(x)) and, through Cody's rational approximations of the
/// complementary error function at y = |x| / sqrt(2), the smaller tail
/// Phi(-|x|) to full relative accuracy; the larger side is 1 - tail. So
/// normal_terms(-x) is normal_terms(x) with cdf and ccdf swapped, bit for bit.
///
/// Against the C library's complementary error function: the smaller tail's
/// relative error is <= 5e-15 for |x| <= 5 and <= 2.5e-13 for |x| <= 37.5
/// (the rounding of x^2 / 2 inside the shared exponential grows with x^2);
/// the absolute error of Phi is <= 2.2e-16 everywhere. Only subnormal tails
/// (|x| > 37.5) lose relative accuracy; beyond |x| ~ 38.6 the tail and phi
/// are 0.
inline NormalTerms<double> normal_terms(double x) {
  const double e = std::exp(-0.5 * x * x);
  const double tail = detail::normal_tail(x, e);
  const double pdf = kInvSqrt2Pi * e;
  if (x < 0.0) return {tail, 1.0 - tail, pdf};
  return {1.0 - tail, tail, pdf};
}

/// Standard-normal cumulative distribution function: normal_terms(x).cdf.
inline double normal_cdf(double x) { return normal_terms(x).cdf; }

/// Inverse standard-normal CDF (Acklam's rational approximation, refined by
/// one Halley step; |relative error| < 1e-13 over (0, 1)).
double normal_quantile(double p);

/// A normal random variable N(mu, var). `var` must be non-negative.
struct NormalRV {
  double mu = 0.0;
  double var = 0.0;

  double sigma() const { return std::sqrt(var); }

  static NormalRV from_sigma(double mu, double sigma) { return {mu, sigma * sigma}; }

  /// mu + k * sigma — the confidence-weighted delay the paper optimizes
  /// (k=0: 50% of circuits meet the bound; k=1: 84.1%; k=3: 99.8%).
  double quantile_offset(double k) const { return mu + k * sigma(); }

  /// P(X <= x).
  double cdf(double x) const {
    if (var <= 0.0) return x >= mu ? 1.0 : 0.0;
    return normal_cdf((x - mu) / sigma());
  }
};

/// Sum of two independent normals (eq. 4).
inline NormalRV add(const NormalRV& a, const NormalRV& b) {
  return {a.mu + b.mu, a.var + b.var};
}

inline NormalRV add(const NormalRV& a, double c) { return {a.mu + c, a.var}; }

}  // namespace statsize::stat
