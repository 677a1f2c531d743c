// Tests for the normal-distribution primitives and the analytic Clark max
// moments (paper eqs. 10, 12, 13).
//
// Closed-form anchors:
//  * iid operands N(m, s^2): mu_C = m + s/sqrt(pi), var_C = s^2 (1 - 1/pi).
//  * dominant operand (|muA - muB| >> theta): C == the larger operand.
// Statistical anchor: Monte Carlo estimates over an operand grid.

#include "ssta/propagate.h"
#include "stat/clark.h"
#include "stat/normal.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

namespace statsize::stat {
namespace {

constexpr double kPi = 3.14159265358979323846;

TEST(Normal, PdfKnownValues) {
  EXPECT_NEAR(normal_pdf(0.0), 1.0 / std::sqrt(2.0 * kPi), 1e-15);
  EXPECT_NEAR(normal_pdf(1.0), std::exp(-0.5) / std::sqrt(2.0 * kPi), 1e-15);
  EXPECT_NEAR(normal_pdf(-1.0), normal_pdf(1.0), 0.0);
}

TEST(Normal, CdfKnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-15);
  EXPECT_NEAR(normal_cdf(1.0), 0.8413447460685429, 1e-12);
  EXPECT_NEAR(normal_cdf(3.0), 0.9986501019683699, 1e-12);
  EXPECT_NEAR(normal_cdf(-3.0) + normal_cdf(3.0), 1.0, 1e-15);
}

TEST(Normal, CdfTailsAreAccurate) {
  // erfc-based evaluation keeps relative accuracy deep in the lower tail.
  EXPECT_NEAR(normal_cdf(-8.0) / 6.22096057427178e-16, 1.0, 1e-9);
  EXPECT_GT(normal_cdf(-37.0), 0.0);
  EXPECT_EQ(normal_cdf(40.0), 1.0);
}

TEST(Normal, QuantileInvertsCdf) {
  for (double p : {1e-9, 1e-4, 0.02, 0.2, 0.5, 0.7, 0.975, 0.9999, 1.0 - 1e-9}) {
    const double x = normal_quantile(p);
    EXPECT_NEAR(normal_cdf(x), p, 1e-12) << "p=" << p;
  }
}

TEST(Normal, QuantileKnownValues) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-14);
  EXPECT_NEAR(normal_quantile(0.8413447460685429), 1.0, 1e-10);
  EXPECT_NEAR(normal_quantile(0.9986501019683699), 3.0, 1e-9);
}

TEST(Normal, QuantileEdgeCases) {
  EXPECT_TRUE(std::isinf(normal_quantile(0.0)));
  EXPECT_TRUE(std::isinf(normal_quantile(1.0)));
  EXPECT_LT(normal_quantile(0.0), 0.0);
  EXPECT_GT(normal_quantile(1.0), 0.0);
}

// ---------------------------------------------------------------------------
// The one Phi/phi kernel, normal_terms, against the C library.
// ---------------------------------------------------------------------------

// Dense grid over [-37.5, 37.5]: the step is not a binary fraction, so the
// points land all over each approximation range, including its breakpoints'
// neighbourhoods (|x| = sqrt(2) * 0.5 and sqrt(2) * 4).
std::vector<double> dense_grid() {
  std::vector<double> xs;
  for (double x = 0.0; x <= 37.5; x += 9.7e-4) {
    xs.push_back(x);
    xs.push_back(-x);
  }
  for (double x : {0.5 * std::sqrt(2.0), 4.0 * std::sqrt(2.0)}) {
    for (double d : {std::nextafter(x, 0.0), x, std::nextafter(x, 10.0)}) {
      xs.push_back(d);
      xs.push_back(-d);
    }
  }
  return xs;
}

TEST(NormalTerms, MatchLibraryComplementaryErrorFunction) {
  double worst_tail_5 = 0.0;
  double worst_tail = 0.0;
  double worst_abs = 0.0;
  for (double x : dense_grid()) {
    const NormalTerms<double> t = normal_terms(x);
    const double ref_cdf = 0.5 * std::erfc(-x / std::sqrt(2.0));
    const double ref_ccdf = 0.5 * std::erfc(x / std::sqrt(2.0));
    worst_abs = std::max({worst_abs, std::abs(t.cdf - ref_cdf), std::abs(t.ccdf - ref_ccdf)});
    const double tail = x < 0.0 ? t.cdf : t.ccdf;
    const double ref_tail = 0.5 * std::erfc(std::abs(x) / std::sqrt(2.0));
    const double rel = std::abs(tail - ref_tail) / ref_tail;
    worst_tail = std::max(worst_tail, rel);
    if (std::abs(x) <= 5.0) worst_tail_5 = std::max(worst_tail_5, rel);
  }
  EXPECT_LE(worst_tail_5, 5e-15);
  EXPECT_LE(worst_tail, 2.5e-13);
  EXPECT_LE(worst_abs, std::numeric_limits<double>::epsilon());
}

TEST(NormalTerms, NegationMirrorsExactly) {
  std::vector<double> xs = dense_grid();
  for (double x : {0.0, 1e-300, 8.3, 38.0, 40.0, 1e10, std::numeric_limits<double>::infinity()}) {
    xs.push_back(x);
  }
  for (double x : xs) {
    const NormalTerms<double> p = normal_terms(x);
    const NormalTerms<double> m = normal_terms(-x);
    ASSERT_EQ(p.cdf, m.ccdf) << "x=" << x;
    ASSERT_EQ(p.ccdf, m.cdf) << "x=" << x;
    ASSERT_EQ(p.pdf, m.pdf) << "x=" << x;
  }
}

TEST(NormalTerms, PdfIsTheDensityBitForBit) {
  for (double x : dense_grid()) {
    const NormalTerms<double> t = normal_terms(x);
    ASSERT_EQ(t.pdf, 0.3989422804014327 * std::exp(-0.5 * x * x)) << "x=" << x;
    ASSERT_EQ(t.pdf, normal_pdf(x)) << "x=" << x;
    ASSERT_EQ(t.cdf, normal_cdf(x)) << "x=" << x;
  }
}

TEST(NormalTerms, SaturateBeyondTheSubnormalTail) {
  const NormalTerms<double> t = normal_terms(40.0);
  EXPECT_EQ(t.cdf, 1.0);
  EXPECT_EQ(t.ccdf, 0.0);
  EXPECT_EQ(t.pdf, 0.0);
  const NormalTerms<double> inf = normal_terms(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(inf.cdf, 0.0);
  EXPECT_EQ(inf.ccdf, 1.0);
  EXPECT_EQ(inf.pdf, 0.0);
}

TEST(NormalRV, AdditionMatchesEq4) {
  const NormalRV a{3.0, 4.0};
  const NormalRV b{5.0, 9.0};
  const NormalRV c = add(a, b);
  EXPECT_DOUBLE_EQ(c.mu, 8.0);
  EXPECT_DOUBLE_EQ(c.var, 13.0);
  EXPECT_DOUBLE_EQ(c.sigma(), std::sqrt(13.0));
}

TEST(NormalRV, QuantileOffsetYieldLevels) {
  // The paper's yield statement (sec. 4): mu -> 50%, mu+sigma -> 84.1%,
  // mu+3sigma -> 99.8%.
  const NormalRV d{100.0, 4.0};
  EXPECT_NEAR(d.cdf(d.quantile_offset(0.0)), 0.50, 1e-12);
  EXPECT_NEAR(d.cdf(d.quantile_offset(1.0)), 0.841, 5e-4);
  EXPECT_NEAR(d.cdf(d.quantile_offset(3.0)), 0.9987, 5e-4);
}

// ---------------------------------------------------------------------------
// Clark max: closed-form anchors.
// ---------------------------------------------------------------------------

TEST(ClarkMax, IidOperandsClosedForm) {
  for (double m : {-4.0, 0.0, 2.5, 100.0}) {
    for (double s : {0.1, 1.0, 3.0}) {
      const NormalRV a = NormalRV::from_sigma(m, s);
      const NormalRV c = clark_max(a, a);
      EXPECT_NEAR(c.mu, m + s / std::sqrt(kPi), 1e-10) << m << " " << s;
      EXPECT_NEAR(c.var, s * s * (1.0 - 1.0 / kPi), 1e-10) << m << " " << s;
    }
  }
}

TEST(ClarkMax, IsSymmetric) {
  const NormalRV a{1.0, 0.5};
  const NormalRV b{2.0, 2.0};
  const NormalRV ab = clark_max(a, b);
  const NormalRV ba = clark_max(b, a);
  EXPECT_NEAR(ab.mu, ba.mu, 1e-14);
  EXPECT_NEAR(ab.var, ba.var, 1e-14);
}

TEST(ClarkMax, DominantOperandWins) {
  const NormalRV a{100.0, 1.0};
  const NormalRV b{0.0, 1.0};
  const NormalRV c = clark_max(a, b);
  EXPECT_NEAR(c.mu, 100.0, 1e-12);
  EXPECT_NEAR(c.var, 1.0, 1e-12);
}

TEST(ClarkMax, MeanDominatesBothOperands) {
  // E[max(A,B)] >= max(E[A], E[B]) by Jensen applied to the convex max.
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> mu_d(-10.0, 10.0);
  std::uniform_real_distribution<double> s_d(0.05, 5.0);
  for (int i = 0; i < 200; ++i) {
    const NormalRV a = NormalRV::from_sigma(mu_d(rng), s_d(rng));
    const NormalRV b = NormalRV::from_sigma(mu_d(rng), s_d(rng));
    const NormalRV c = clark_max(a, b);
    EXPECT_GE(c.mu, std::max(a.mu, b.mu) - 1e-12);
    EXPECT_GE(c.var, -1e-12);
  }
}

TEST(ClarkMax, NoCancellationAtLargeMeans) {
  // mu ~ 1e6 with sigma ~ 1: the centered evaluation must keep full accuracy
  // (naive E[C^2]-mu^2 would lose ~12 digits here).
  const double big = 1e6;
  const NormalRV a = NormalRV::from_sigma(big, 1.0);
  const NormalRV c = clark_max(a, a);
  EXPECT_NEAR(c.mu - big, 1.0 / std::sqrt(kPi), 1e-9);
  EXPECT_NEAR(c.var, 1.0 - 1.0 / kPi, 1e-9);
}

TEST(ClarkMax, ShiftInvariance) {
  // max(A+d, B+d) = max(A,B)+d: mean shifts, variance unchanged.
  const NormalRV a{2.0, 1.5};
  const NormalRV b{3.0, 0.5};
  const NormalRV c0 = clark_max(a, b);
  const double d = 17.25;
  const NormalRV c1 = clark_max(add(a, d), add(b, d));
  EXPECT_NEAR(c1.mu, c0.mu + d, 1e-10);
  EXPECT_NEAR(c1.var, c0.var, 1e-10);
}

TEST(ClarkMax, DegenerateBothDeterministic) {
  const NormalRV a{3.0, 0.0};
  const NormalRV b{5.0, 0.0};
  const NormalRV c = clark_max(a, b);
  EXPECT_DOUBLE_EQ(c.mu, 5.0);
  EXPECT_DOUBLE_EQ(c.var, 0.0);
}

TEST(ClarkMax, DegenerateTieAveragesVariance) {
  const NormalRV a{3.0, 0.0};
  const NormalRV b{3.0, 0.0};
  const NormalRV c = clark_max(a, b);
  EXPECT_DOUBLE_EQ(c.mu, 3.0);
  EXPECT_DOUBLE_EQ(c.var, 0.0);
}

TEST(ClarkMax, OneDeterministicOperand) {
  // max(const 0, N(0,1)) is the rectified normal-ish mix; Clark still applies
  // since theta = 1 > 0. Known: mu = phi(0) = 1/sqrt(2 pi).
  const NormalRV a{0.0, 0.0};
  const NormalRV b{0.0, 1.0};
  const NormalRV c = clark_max(a, b);
  EXPECT_NEAR(c.mu, 1.0 / std::sqrt(2.0 * kPi), 1e-12);
  // var = (0+0)*0.5 + (1+0)*0.5 - mu^2 = 0.5 - 1/(2 pi)
  EXPECT_NEAR(c.var, 0.5 - 1.0 / (2.0 * kPi), 1e-12);
}

// fold_max (ssta/propagate.h) is the one fold every propagation engine uses:
// a left fold with operand A = accumulator, in node-list order.
TEST(ClarkMax, FoldMatchesManualChain) {
  const std::vector<NormalRV> rvs = {{1.0, 0.2}, {1.5, 0.3}, {0.5, 0.1}, {1.4, 0.4}};
  const std::vector<int> nodes = {0, 1, 2, 3};
  const NormalRV manual =
      clark_max(clark_max(clark_max(rvs[0], rvs[1]), rvs[2]), rvs[3]);
  const NormalRV folded = ssta::fold_max(nodes, rvs, clark_max);
  EXPECT_EQ(folded.mu, manual.mu);
  EXPECT_EQ(folded.var, manual.var);
  // The node list, not the value order, sets the fold order.
  const std::vector<int> reversed = {3, 2, 1, 0};
  const NormalRV manual_rev =
      clark_max(clark_max(clark_max(rvs[3], rvs[2]), rvs[1]), rvs[0]);
  const NormalRV folded_rev = ssta::fold_max(reversed, rvs, clark_max);
  EXPECT_EQ(folded_rev.mu, manual_rev.mu);
  EXPECT_EQ(folded_rev.var, manual_rev.var);
}

TEST(ClarkMax, FoldSingleElementIsIdentity) {
  const std::vector<NormalRV> rvs = {{2.0, 0.7}};
  const std::vector<int> nodes = {0};
  int calls = 0;
  const NormalRV c = ssta::fold_max(nodes, rvs, [&](const NormalRV& x, const NormalRV& y) {
    ++calls;
    return clark_max(x, y);
  });
  EXPECT_EQ(c.mu, rvs[0].mu);
  EXPECT_EQ(c.var, rvs[0].var);
  EXPECT_EQ(calls, 0);
}

// ---------------------------------------------------------------------------
// Monte Carlo validation sweep (parameterized): analytic moments must agree
// with sampled moments of max(A, B) to MC accuracy. This is experiment E4 in
// miniature, pinned as a regression test.
// ---------------------------------------------------------------------------

struct OperandCase {
  double mu_a, sigma_a, mu_b, sigma_b;
};

class ClarkVsMonteCarlo : public ::testing::TestWithParam<OperandCase> {};

TEST_P(ClarkVsMonteCarlo, MomentsAgree) {
  const OperandCase& p = GetParam();
  const NormalRV a = NormalRV::from_sigma(p.mu_a, p.sigma_a);
  const NormalRV b = NormalRV::from_sigma(p.mu_b, p.sigma_b);
  const NormalRV c = clark_max(a, b);

  std::mt19937_64 rng(12345);
  std::normal_distribution<double> da(p.mu_a, p.sigma_a);
  std::normal_distribution<double> db(p.mu_b, p.sigma_b);
  const int n = 400000;
  double sum = 0.0;
  double sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double m = std::max(da(rng), db(rng));
    sum += m;
    sum2 += m * m;
  }
  const double mc_mu = sum / n;
  const double mc_var = sum2 / n - mc_mu * mc_mu;
  const double sigma_max = std::max(p.sigma_a, p.sigma_b);
  // MC standard error of the mean ~ sigma/sqrt(n); allow 5 standard errors.
  EXPECT_NEAR(c.mu, mc_mu, 5.0 * sigma_max / std::sqrt(double(n)));
  EXPECT_NEAR(c.var, mc_var, 0.02 * sigma_max * sigma_max + 5e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ClarkVsMonteCarlo,
    ::testing::Values(OperandCase{0.0, 1.0, 0.0, 1.0},     // iid
                      OperandCase{0.0, 1.0, 0.5, 1.0},     // small gap
                      OperandCase{0.0, 1.0, 3.0, 1.0},     // large gap
                      OperandCase{0.0, 0.2, 0.0, 2.0},     // very different sigmas
                      OperandCase{5.0, 0.5, 4.0, 1.5},     // mixed
                      OperandCase{10.0, 2.0, 10.0, 0.1},   // tie w/ asym sigma
                      OperandCase{-3.0, 1.0, 2.0, 0.3}));  // dominated

// Variance of the max never exceeds the sum of operand variances, and the
// mean never exceeds max(muA, muB) + theta (a crude union-type bound that
// catches sign errors).
class ClarkBounds : public ::testing::TestWithParam<int> {};

TEST_P(ClarkBounds, RandomizedInvariants) {
  std::mt19937 rng(GetParam());
  std::uniform_real_distribution<double> mu_d(-50.0, 50.0);
  std::uniform_real_distribution<double> s_d(0.01, 10.0);
  for (int i = 0; i < 500; ++i) {
    const NormalRV a = NormalRV::from_sigma(mu_d(rng), s_d(rng));
    const NormalRV b = NormalRV::from_sigma(mu_d(rng), s_d(rng));
    const NormalRV c = clark_max(a, b);
    const double theta = std::sqrt(a.var + b.var);
    EXPECT_LE(c.mu, std::max(a.mu, b.mu) + theta + 1e-10);
    EXPECT_LE(c.var, a.var + b.var + 1e-10);
    EXPECT_GE(c.var, 0.0);
    EXPECT_TRUE(std::isfinite(c.mu));
    EXPECT_TRUE(std::isfinite(c.var));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClarkBounds, ::testing::Range(1, 9));

// The full-space sizing formulation lower-bounds fold-variance variables by
// 0.5 (1 - 1/pi) * min(varA, varB) (core/full_space.cpp). Verify the
// underlying property Var(max) >= (1 - 1/pi) * min(varA, varB) empirically
// over a wide operand range — the symmetric case attains it.
class ClarkMaxShrinkBound : public ::testing::TestWithParam<int> {};

TEST_P(ClarkMaxShrinkBound, VarianceShrinkIsBounded) {
  std::mt19937 rng(GetParam() * 31 + 5);
  std::uniform_real_distribution<double> mu_d(-30.0, 30.0);
  std::uniform_real_distribution<double> v_d(1e-3, 30.0);
  const double shrink = 1.0 - 1.0 / kPi;
  for (int i = 0; i < 2000; ++i) {
    const NormalRV a{mu_d(rng), v_d(rng)};
    const NormalRV b{mu_d(rng), v_d(rng)};
    const NormalRV c = clark_max(a, b);
    ASSERT_GE(c.var, shrink * std::min(a.var, b.var) - 1e-12)
        << "a=(" << a.mu << "," << a.var << ") b=(" << b.mu << "," << b.var << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClarkMaxShrinkBound, ::testing::Range(0, 6));

}  // namespace
}  // namespace statsize::stat
