// Derivative verification for the Clark max — the property the whole paper
// rests on: eqs. 10/12/13 admit *analytic* first and second derivatives.
//
// Three independent derivative computations are cross-checked:
//   1. hand-derived gradient (clark_max_grad)
//   2. second-order forward autodiff (clark_max_full)
//   3. central finite differences of the value / of the analytic gradient

#include "stat/clark.h"

#include <array>
#include <cmath>
#include <numbers>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace statsize::stat {
namespace {

struct Point {
  double mu_a, mu_b, var_a, var_b;

  double& coord(int i) {
    switch (i) {
      case 0: return mu_a;
      case 1: return mu_b;
      case 2: return var_a;
      default: return var_b;
    }
  }
  double coord(int i) const { return const_cast<Point*>(this)->coord(i); }
};

NormalRV eval(const Point& p) {
  return clark_max({p.mu_a, p.var_a}, {p.mu_b, p.var_b});
}

Point perturb(Point p, int i, double h) {
  p.coord(i) += h;
  return p;
}

class ClarkDerivative : public ::testing::TestWithParam<Point> {};

TEST_P(ClarkDerivative, HandGradientMatchesFiniteDifferences) {
  const Point p = GetParam();
  ClarkGrad grad;
  const NormalRV c = clark_max_grad({p.mu_a, p.var_a}, {p.mu_b, p.var_b}, grad);

  for (int i = 0; i < 4; ++i) {
    const double h = 1e-6 * (1.0 + std::abs(p.coord(i)));
    const NormalRV up = eval(perturb(p, i, h));
    const NormalRV dn = eval(perturb(p, i, -h));
    const double fd_mu = (up.mu - dn.mu) / (2 * h);
    const double fd_var = (up.var - dn.var) / (2 * h);
    EXPECT_NEAR(grad.dmu[i], fd_mu, 1e-5 * (1 + std::abs(fd_mu))) << "var index " << i;
    EXPECT_NEAR(grad.dvar[i], fd_var, 1e-5 * (1 + std::abs(fd_var))) << "var index " << i;
  }
  EXPECT_TRUE(std::isfinite(c.mu));
}

TEST_P(ClarkDerivative, HandGradientMatchesAutodiff) {
  const Point p = GetParam();
  ClarkGrad grad_hand;
  ClarkGrad grad_ad;
  ClarkHess hess;
  const NormalRV c1 = clark_max_grad({p.mu_a, p.var_a}, {p.mu_b, p.var_b}, grad_hand);
  const NormalRV c2 = clark_max_full({p.mu_a, p.var_a}, {p.mu_b, p.var_b}, grad_ad, hess);

  EXPECT_NEAR(c1.mu, c2.mu, 1e-12 * (1 + std::abs(c1.mu)));
  EXPECT_NEAR(c1.var, c2.var, 1e-11 * (1 + std::abs(c1.var)));
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(grad_hand.dmu[i], grad_ad.dmu[i], 1e-10) << "dmu " << i;
    EXPECT_NEAR(grad_hand.dvar[i], grad_ad.dvar[i], 1e-9 * (1 + std::abs(grad_ad.dvar[i])))
        << "dvar " << i;
  }
}

TEST_P(ClarkDerivative, AutodiffHessianMatchesFiniteDifferenceOfGradient) {
  const Point p = GetParam();
  ClarkGrad grad;
  ClarkHess hess;
  clark_max_full({p.mu_a, p.var_a}, {p.mu_b, p.var_b}, grad, hess);

  for (int i = 0; i < 4; ++i) {
    const double h = 1e-5 * (1.0 + std::abs(p.coord(i)));
    ClarkGrad gp;
    ClarkGrad gm;
    const Point pp = perturb(p, i, h);
    const Point pm = perturb(p, i, -h);
    clark_max_grad({pp.mu_a, pp.var_a}, {pp.mu_b, pp.var_b}, gp);
    clark_max_grad({pm.mu_a, pm.var_a}, {pm.mu_b, pm.var_b}, gm);
    for (int j = 0; j < 4; ++j) {
      const double fd_mu = (gp.dmu[j] - gm.dmu[j]) / (2 * h);
      const double fd_var = (gp.dvar[j] - gm.dvar[j]) / (2 * h);
      const int k = autodiff::Dual2<4>::hess_index(i, j);
      EXPECT_NEAR(hess.mu[k], fd_mu, 2e-4 * (1 + std::abs(fd_mu))) << i << "," << j;
      EXPECT_NEAR(hess.var[k], fd_var, 2e-4 * (1 + std::abs(fd_var))) << i << "," << j;
    }
  }
}

TEST_P(ClarkDerivative, MuGradientIsConvexCombination) {
  // dmu/dmuA + dmu/dmuB == 1 (shift invariance) and both lie in [0, 1].
  const Point p = GetParam();
  ClarkGrad grad;
  clark_max_grad({p.mu_a, p.var_a}, {p.mu_b, p.var_b}, grad);
  EXPECT_NEAR(grad.dmu[0] + grad.dmu[1], 1.0, 1e-12);
  EXPECT_GE(grad.dmu[0], 0.0);
  EXPECT_LE(grad.dmu[0], 1.0);
  EXPECT_GE(grad.dmu[2], 0.0);  // more input variance never reduces E[max]
  EXPECT_GE(grad.dmu[3], 0.0);
}

TEST_P(ClarkDerivative, VarGradientShiftInvariance) {
  // Shifting both means leaves var unchanged: dvar/dmuA + dvar/dmuB == 0.
  const Point p = GetParam();
  ClarkGrad grad;
  clark_max_grad({p.mu_a, p.var_a}, {p.mu_b, p.var_b}, grad);
  EXPECT_NEAR(grad.dvar[0] + grad.dvar[1], 0.0, 1e-9 * (1 + std::abs(grad.dvar[0])));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ClarkDerivative,
    ::testing::Values(Point{0.0, 0.0, 1.0, 1.0},        // iid standard
                      Point{1.0, 0.0, 1.0, 1.0},        // small gap
                      Point{5.0, 0.0, 1.0, 1.0},        // large gap
                      Point{0.0, 0.0, 0.04, 4.0},       // asymmetric sigma
                      Point{3.0, 2.5, 0.25, 0.0},       // one deterministic
                      Point{100.0, 99.0, 2.0, 3.0},     // large means
                      Point{-4.0, 4.0, 9.0, 0.01},      // dominated
                      Point{7.2, 7.2, 0.6, 0.6},        // exact tie
                      Point{0.3, -0.7, 1.3, 2.1}));     // generic

TEST(ClarkDerivativeDegenerate, DeterministicBranchGradients) {
  ClarkGrad grad;
  ClarkHess hess;
  const NormalRV c = clark_max_full({5.0, 0.0}, {3.0, 0.0}, grad, hess);
  EXPECT_DOUBLE_EQ(c.mu, 5.0);
  EXPECT_DOUBLE_EQ(grad.dmu[0], 1.0);
  EXPECT_DOUBLE_EQ(grad.dmu[1], 0.0);
  EXPECT_DOUBLE_EQ(grad.dvar[2], 1.0);
  EXPECT_DOUBLE_EQ(grad.dvar[3], 0.0);
  for (double h : hess.mu) EXPECT_DOUBLE_EQ(h, 0.0);
}

TEST(ClarkDerivativeDegenerate, TieSplitsSubgradient) {
  ClarkGrad grad;
  const NormalRV c = clark_max_grad({2.0, 0.0}, {2.0, 0.0}, grad);
  EXPECT_DOUBLE_EQ(c.mu, 2.0);
  EXPECT_DOUBLE_EQ(grad.dmu[0], 0.5);
  EXPECT_DOUBLE_EQ(grad.dmu[1], 0.5);
}

// Randomized agreement sweep with many points per seed; this is the heavy
// regression net that protects the hand-derived formulas.
class ClarkDerivativeFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ClarkDerivativeFuzz, HandVsAutodiffEverywhere) {
  std::mt19937 rng(GetParam());
  std::uniform_real_distribution<double> mu_d(-20.0, 20.0);
  std::uniform_real_distribution<double> v_d(1e-4, 25.0);
  for (int i = 0; i < 300; ++i) {
    const NormalRV a{mu_d(rng), v_d(rng)};
    const NormalRV b{mu_d(rng), v_d(rng)};
    ClarkGrad gh;
    ClarkGrad ga;
    ClarkHess hess;
    clark_max_grad(a, b, gh);
    clark_max_full(a, b, ga, hess);
    for (int j = 0; j < 4; ++j) {
      ASSERT_NEAR(gh.dmu[j], ga.dmu[j], 1e-9 * (1 + std::abs(ga.dmu[j])));
      ASSERT_NEAR(gh.dvar[j], ga.dvar[j], 1e-8 * (1 + std::abs(ga.dvar[j])));
    }
    // Hessians of mu must be symmetric in operand exchange paired with
    // index swap (0<->1, 2<->3).
    using D4 = autodiff::Dual2<4>;
    ClarkGrad ga2;
    ClarkHess hess2;
    clark_max_full(b, a, ga2, hess2);
    ASSERT_NEAR(hess.mu[D4::hess_index(0, 0)], hess2.mu[D4::hess_index(1, 1)], 1e-9);
    ASSERT_NEAR(hess.var[D4::hess_index(2, 2)], hess2.var[D4::hess_index(3, 3)],
                1e-8 * (1 + std::abs(hess.var[D4::hess_index(2, 2)])));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClarkDerivativeFuzz, ::testing::Range(100, 106));

// ---- Degenerate-regime robustness. The solver's non-finite tripwires
// (DESIGN.md §9) assume the statistical max itself never manufactures a
// NaN/inf in its corner regimes: theta -> 0 (near-deterministic operands),
// extreme |alpha| (one operand utterly dominant), and exactly-zero variances.

void expect_finite_derivatives(const ClarkGrad& g, const ClarkHess& h, const char* label) {
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(std::isfinite(g.dmu[i])) << label << " dmu[" << i << "]";
    EXPECT_TRUE(std::isfinite(g.dvar[i])) << label << " dvar[" << i << "]";
  }
  for (double v : h.mu) EXPECT_TRUE(std::isfinite(v)) << label << " hess.mu";
  for (double v : h.var) EXPECT_TRUE(std::isfinite(v)) << label << " hess.var";
}

TEST(ClarkDegenerate, ThetaNearZeroIsFiniteEverywhere) {
  // Total variance just above the kThetaFloorSq cutoff, so the *analytic*
  // branch runs with theta ~ 1.4e-10 — the regime where naive formulas
  // divide by ~0.
  for (double gap : {0.0, 1e-12, 1e-3, 1.0, -1.0}) {
    ClarkGrad grad;
    ClarkHess hess;
    const NormalRV c = clark_max_full({1.0 + gap, 1e-20}, {1.0, 1e-20}, grad, hess);
    EXPECT_TRUE(std::isfinite(c.mu)) << "gap " << gap;
    EXPECT_TRUE(std::isfinite(c.var)) << "gap " << gap;
    EXPECT_GE(c.var, 0.0) << "gap " << gap;
    expect_finite_derivatives(grad, hess, "theta->0");

    ClarkGrad grad_hand;
    const NormalRV ch = clark_max_grad({1.0 + gap, 1e-20}, {1.0, 1e-20}, grad_hand);
    EXPECT_TRUE(std::isfinite(ch.mu)) << "gap " << gap;
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(std::isfinite(grad_hand.dmu[i])) << "gap " << gap << " dmu[" << i << "]";
      EXPECT_TRUE(std::isfinite(grad_hand.dvar[i])) << "gap " << gap << " dvar[" << i << "]";
    }
  }
}

TEST(ClarkDegenerate, ThetaToZeroLimitPinsToDeterministicMax) {
  // As theta -> 0 with a fixed gap, the Clark moments must converge to the
  // deterministic max: mu -> max(muA, muB), var -> the winner's variance,
  // and dmu converges to the winner-takes-all subgradient.
  for (double v : {1e-8, 1e-12, 1e-16, 1e-20}) {
    ClarkGrad grad;
    ClarkHess hess;
    const NormalRV c = clark_max_full({2.0, v}, {1.0, v}, grad, hess);
    EXPECT_NEAR(c.mu, 2.0, 1e-3 * std::sqrt(v)) << "var " << v;
    // var is assembled as E[x^2] - mu^2, so its absolute accuracy bottoms
    // out at the cancellation floor ~eps * mu^2, not at a relative error.
    EXPECT_NEAR(c.var, v, 1e-6 * v + 4e-15) << "var " << v;
    EXPECT_NEAR(grad.dmu[0], 1.0, 1e-12) << "var " << v;
    EXPECT_NEAR(grad.dmu[1], 0.0, 1e-12) << "var " << v;
    EXPECT_NEAR(grad.dvar[2], 1.0, 1e-9) << "var " << v;   // d var / d varA
    EXPECT_NEAR(grad.dvar[3], 0.0, 1e-9) << "var " << v;   // d var / d varB
    expect_finite_derivatives(grad, hess, "theta->0 limit");
  }
}

TEST(ClarkDegenerate, ExtremeAlphaIsFiniteAndSaturates) {
  // |alpha| = |gap|/theta in the tens: Phi(-alpha) and phi(alpha) underflow
  // toward 0 and every alpha-weighted correction term must die with them
  // instead of producing 0 * inf.
  const NormalRV wide[] = {{40.0, 1.0}, {0.0, 1.0}};       // alpha ~ +28
  const NormalRV narrow[] = {{3.0, 1e-4}, {0.0, 1e-4}};    // alpha ~ +212
  for (const NormalRV* p : {wide, narrow}) {
    for (int flip = 0; flip < 2; ++flip) {                 // both signs of alpha
      const NormalRV& a = p[flip];
      const NormalRV& b = p[1 - flip];
      ClarkGrad grad;
      ClarkHess hess;
      const NormalRV c = clark_max_full(a, b, grad, hess);
      const NormalRV& winner = a.mu >= b.mu ? a : b;
      EXPECT_NEAR(c.mu, winner.mu, 1e-10 * (1.0 + std::abs(winner.mu)));
      EXPECT_NEAR(c.var, winner.var, 1e-10 * winner.var);
      expect_finite_derivatives(grad, hess, "extreme alpha");
      // Winner-takes-all saturation of the mean sensitivities.
      EXPECT_NEAR(grad.dmu[flip], 1.0, 1e-12);
      EXPECT_NEAR(grad.dmu[1 - flip], 0.0, 1e-12);
    }
  }
}

TEST(ClarkDegenerate, ZeroVarianceOperandsAreFinite) {
  // One or both operands exactly deterministic — both the analytic branch
  // (total variance > 0) and the floor branch (== 0) must return finite
  // moments, gradients, and Hessians.
  const NormalRV cases[][2] = {
      {{3.0, 0.0}, {1.0, 4.0}},   // deterministic loser
      {{5.0, 0.0}, {5.5, 0.25}},  // deterministic, near the other's mean
      {{2.0, 4.0}, {2.0, 0.0}},   // tie in mu, one deterministic
      {{5.0, 0.0}, {3.0, 0.0}},   // both deterministic
      {{2.0, 0.0}, {2.0, 0.0}},   // both deterministic, exact tie
  };
  for (const auto& pair : cases) {
    ClarkGrad grad;
    ClarkHess hess;
    const NormalRV c = clark_max_full(pair[0], pair[1], grad, hess);
    EXPECT_TRUE(std::isfinite(c.mu));
    EXPECT_TRUE(std::isfinite(c.var));
    EXPECT_GE(c.var, 0.0);
    EXPECT_GE(c.mu, std::max(pair[0].mu, pair[1].mu) - 1e-12);
    expect_finite_derivatives(grad, hess, "zero variance");
  }
}

// ---------------------------------------------------------------------------
// One Phi/phi kernel: every evaluator takes its terms from normal_terms, so
// the value paths agree bit for bit, and the Dual2 overload's derivatives are
// those of the double kernel.
// ---------------------------------------------------------------------------

TEST(ClarkKernel, EvaluatorsAgreeBitwise) {
  // theta = 1 for the alpha sweep (var 0.36 + 0.64), so mu_a is alpha; the
  // sweep crosses the saturation of Phi near |alpha| = 8.3 and the dominance
  // exit at |alpha| = 9, past which the bare formula is not the evaluators'
  // answer. The last points sit at and below the degenerate-theta floor.
  std::vector<Point> grid;
  for (double alpha : {-40.0, -38.0, -8.3, -3.0, -0.4, 0.0, 0.4, 3.0, 8.3, 38.0, 40.0}) {
    grid.push_back({alpha, 0.0, 0.36, 0.64});
    grid.push_back({alpha + 100.0, 100.0, 0.64, 0.36});
  }
  grid.push_back({1.0, 1.0 - 1e-13, 1e-24, 0.0});
  grid.push_back({1.0, 1.0, 5e-25, 5e-25});
  grid.push_back({2.0, 1.0, 0.0, 0.0});
  grid.push_back({1.0, 1.0 + 1e-11, 2e-24, 0.0});
  for (const Point& p : grid) {
    const NormalRV a{p.mu_a, p.var_a};
    const NormalRV b{p.mu_b, p.var_b};
    const NormalRV plain = clark_max(a, b);
    ClarkGrad grad;
    const NormalRV with_grad = clark_max_grad(a, b, grad);
    ClarkGrad grad_full;
    ClarkHess hess;
    const NormalRV full = clark_max_full(a, b, grad_full, hess);
    EXPECT_EQ(plain.mu, with_grad.mu) << p.mu_a << " " << p.mu_b;
    EXPECT_EQ(plain.var, with_grad.var) << p.mu_a << " " << p.mu_b;
    EXPECT_EQ(plain.mu, full.mu) << p.mu_a << " " << p.mu_b;
    EXPECT_EQ(plain.var, full.var) << p.mu_a << " " << p.mu_b;
    if (p.var_a + p.var_b > kThetaFloorSq && !dominated(p.mu_a - p.mu_b, p.var_a + p.var_b)) {
      double mu = 0.0;
      double var = 0.0;
      clark_moments(p.mu_a, p.mu_b, p.var_a, p.var_b, mu, var);
      EXPECT_EQ(plain.mu, mu) << p.mu_a << " " << p.mu_b;
      EXPECT_EQ(plain.var, var) << p.mu_a << " " << p.mu_b;
    }
  }
}

// ---------------------------------------------------------------------------
// Dominance exit: once |alpha| >= 9 every evaluator returns the dominant
// operand itself, and that answer is never less accurate than the formula.
// ---------------------------------------------------------------------------

/// The exit's test grid: |alpha| in [9, 40], varB / varA in [1e-3, 1e3],
/// theta^2 from 1e-6 to 400, dominant means from -25 to 140.3 (zero
/// included), and either operand dominant.
std::vector<std::pair<NormalRV, NormalRV>> dominated_pairs() {
  std::vector<std::pair<NormalRV, NormalRV>> pairs;
  for (double alpha : {9.0, 9.01, 9.5, 10.0, 11.0, 13.0, 16.0, 20.0, 25.0, 30.0, 35.0, 40.0}) {
    for (double ratio : {1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0, 1e3}) {
      for (double theta2 : {1e-6, 1.0, 400.0}) {
        for (double mu_win : {0.0, 1.0, 3.7, 140.3, -25.0}) {
          const double var_a = theta2 / (1.0 + ratio);
          const double var_b = theta2 - var_a;
          const double mu_lose = mu_win - alpha * std::sqrt(theta2);
          pairs.push_back({{mu_win, var_a}, {mu_lose, var_b}});  // A dominates
          pairs.push_back({{mu_lose, var_a}, {mu_win, var_b}});  // B dominates
        }
      }
    }
  }
  return pairs;
}

void expect_same_bits(const NormalRV& got, const NormalRV& want, const char* who) {
  EXPECT_EQ(got.mu, want.mu) << who << " at (" << want.mu << ", " << want.var << ")";
  EXPECT_EQ(got.var, want.var) << who << " at (" << want.mu << ", " << want.var << ")";
}

TEST(ClarkDominance, EveryEvaluatorReturnsTheDominantOperand) {
  using D4 = autodiff::Dual2<4>;
  int exits = 0;
  for (const auto& [a, b] : dominated_pairs()) {
    if (!dominated(a.mu - b.mu, a.var + b.var)) continue;  // nominal 9 may round below
    ++exits;
    const bool a_wins = a.mu > b.mu;
    const NormalRV& win = a_wins ? a : b;
    expect_same_bits(clark_max(a, b), win, "clark_max");

    ClarkGrad grad;
    grad.dmu.fill(-1.0);  // must be overwritten
    expect_same_bits(clark_max_grad(a, b, grad), win, "clark_max_grad");
    ClarkGrad grad_full;
    ClarkHess hess;
    hess.mu.fill(-1.0);
    expect_same_bits(clark_max_full(a, b, grad_full, hess), win, "clark_max_full");
    const std::array<double, 4> unit_mu = a_wins ? std::array<double, 4>{1, 0, 0, 0}
                                                 : std::array<double, 4>{0, 1, 0, 0};
    const std::array<double, 4> unit_var = a_wins ? std::array<double, 4>{0, 0, 1, 0}
                                                   : std::array<double, 4>{0, 0, 0, 1};
    for (const ClarkGrad* g : {&grad, &grad_full}) {
      EXPECT_EQ(g->dmu, unit_mu);
      EXPECT_EQ(g->dvar, unit_var);
    }
    for (double v : hess.mu) EXPECT_EQ(v, 0.0);
    for (double v : hess.var) EXPECT_EQ(v, 0.0);

    // Independent operands are the zero-covariance case; a positive
    // covariance shrinks theta, so the same pair stays past the exit.
    for (double cov : {0.0, 0.25 * std::sqrt(a.var * b.var)}) {
      double tightness = 0.5;
      expect_same_bits(clark_max_correlated(a, b, cov, &tightness), win, "clark_max_correlated");
      EXPECT_EQ(tightness, a_wins ? 1.0 : 0.0);
    }

    // min(A, B) = -max(-A, -B): the lower operand dominates the minimum.
    const NormalRV low = a_wins ? b : a;
    expect_same_bits(clark_min(a, b), low, "clark_min");

    // A Dual2 fold step passes the winner's dual through whole: value,
    // gradient and the Hessian it carries from earlier steps.
    D4 mu_a = D4::variable(a.mu, 0) * D4::variable(1.0, 2);
    D4 mu_b = D4::variable(b.mu, 1) * D4::variable(1.0, 3);
    const D4 var_a = D4::variable(a.var, 2);
    const D4 var_b = D4::variable(b.var, 3);
    D4 mu_out;
    D4 var_out;
    clark_max_dual(mu_a, mu_b, var_a, var_b, mu_out, var_out);
    const D4& mu_win = a_wins ? mu_a : mu_b;
    const D4& var_win = a_wins ? var_a : var_b;
    EXPECT_EQ(mu_out.value(), mu_win.value());
    EXPECT_EQ(mu_out.grad_array(), mu_win.grad_array());
    EXPECT_EQ(mu_out.hess_array(), mu_win.hess_array());
    EXPECT_EQ(var_out.value(), var_win.value());
    EXPECT_EQ(var_out.grad_array(), var_win.grad_array());
  }
  EXPECT_GT(exits, 1000);
}

/// Mean and variance of max(A, B) in long double, written in the frame of
/// the dominant operand D (mean shifted to 0; the variance is
/// shift-invariant): eqs. 10, 12 and 13 with A = D. In that frame every term
/// is small, so the deviations from D's own moments come out without
/// cancellation against them.
struct Reference {
  long double dmu;   ///< mu_C - mu_D
  long double dvar;  ///< var_C - var_D
};

Reference long_double_clark(const NormalRV& dom, const NormalRV& other) {
  const long double var_d = dom.var;
  const long double var_e = other.var;
  const long double theta = std::sqrt(var_d + var_e);
  const long double shift = static_cast<long double>(other.mu) - dom.mu;  // < 0
  const long double alpha = -shift / theta;
  const long double pdf =
      std::exp(-0.5L * alpha * alpha) / std::sqrt(2.0L * std::numbers::pi_v<long double>);
  const long double tail = 0.5L * std::erfc(alpha / std::sqrt(2.0L));  // Phi(-alpha)
  const long double mu = shift * tail + theta * pdf;                      // eq. 10
  // eq. 12 minus var_D: (var_D + 0) Phi(alpha) + (var_E + shift^2) Phi(-alpha)
  // + (0 + shift) theta phi(alpha), with Phi(alpha) = 1 - tail.
  const long double second = -var_d * tail + (var_e + shift * shift) * tail + shift * theta * pdf;
  return {mu, second - mu * mu};  // eq. 13
}

TEST(ClarkDominance, ExitIsNeverLessAccurateThanTheFormula) {
  // Against the long double reference, compare the exit's answer (the
  // dominant operand) with the formula the exit skips (clark_moments, with
  // clark_max's clamp of a negative variance). Relative errors, each error
  // taken as (result - D's moment) - deviation so that it is exact.
  int points = 0;
  int var_strictly_better = 0;
  for (const auto& [a, b] : dominated_pairs()) {
    const bool a_wins = a.mu > b.mu;
    const NormalRV& dom = a_wins ? a : b;
    const Reference ref = long_double_clark(dom, a_wins ? b : a);
    double mu_f = 0.0;
    double var_f = 0.0;
    clark_moments(a.mu, b.mu, a.var, b.var, mu_f, var_f);
    if (var_f < 0.0) var_f = 0.0;

    const long double mu_ref = static_cast<long double>(dom.mu) + ref.dmu;
    const long double var_ref = static_cast<long double>(dom.var) + ref.dvar;
    const auto mu_err = [&](double x) {
      return std::abs((static_cast<long double>(x) - dom.mu) - ref.dmu) / std::abs(mu_ref);
    };
    const auto var_err = [&](double x) {
      return std::abs((static_cast<long double>(x) - dom.var) - ref.dvar) / var_ref;
    };
    EXPECT_LE(mu_err(dom.mu), mu_err(mu_f))
        << "mu at a = (" << a.mu << ", " << a.var << "), b = (" << b.mu << ", " << b.var << ")";
    EXPECT_LE(var_err(dom.var), var_err(var_f))
        << "var at a = (" << a.mu << ", " << a.var << "), b = (" << b.mu << ", " << b.var << ")";
    // The exit's variance is within a relative 2.5e-18 of the true one, far
    // inside half an ulp (>= 2^-54 relative): it is the correctly rounded
    // answer.
    EXPECT_LT(var_err(dom.var), 2.5e-18L);
    var_strictly_better += var_err(dom.var) < var_err(var_f) ? 1 : 0;
    ++points;
  }
  // The formula's cancellation shows: on most points it is strictly worse.
  EXPECT_GT(var_strictly_better, points / 2);
}

TEST(ClarkKernel, Dual2TermsMatchFiniteDifferences) {
  using D1 = autodiff::Dual2<1>;
  constexpr double kH = 1e-5;
  for (double v : {-9.0, -4.5, -2.0, -0.6, -0.1, 0.0, 0.2, 0.7, 1.3, 3.0, 6.0}) {
    const NormalTerms<D1> t = normal_terms(D1::variable(v, 0));
    const NormalTerms<double> up = normal_terms(v + kH);
    const NormalTerms<double> dn = normal_terms(v - kH);
    const NormalTerms<D1> tu = normal_terms(D1::variable(v + kH, 0));
    const NormalTerms<D1> td = normal_terms(D1::variable(v - kH, 0));
    const NormalTerms<double> at = normal_terms(v);
    EXPECT_EQ(t.cdf.value(), at.cdf) << "x=" << v;
    EXPECT_EQ(t.ccdf.value(), at.ccdf) << "x=" << v;
    EXPECT_EQ(t.pdf.value(), at.pdf) << "x=" << v;
    const auto check = [&](const D1& d, double f_up, double f_dn, const D1& d_up,
                           const D1& d_dn, const char* name) {
      EXPECT_NEAR(d.grad(0), (f_up - f_dn) / (2 * kH), 1e-9) << name << " x=" << v;
      EXPECT_NEAR(d.hess(0, 0), (d_up.grad(0) - d_dn.grad(0)) / (2 * kH), 1e-9)
          << name << " x=" << v;
    };
    check(t.cdf, up.cdf, dn.cdf, tu.cdf, td.cdf, "cdf");
    check(t.ccdf, up.ccdf, dn.ccdf, tu.ccdf, td.ccdf, "ccdf");
    check(t.pdf, up.pdf, dn.pdf, tu.pdf, td.pdf, "pdf");
  }
}

// The Dual2 normal CDF/PDF check, kept with the function it covers.
TEST(Dual2, NormalCdfPdfConsistency) {
  // d/dx Phi(x) == phi(x) and d/dx phi(x) == -x phi(x).
  using D2 = autodiff::Dual2<2>;
  constexpr double kTol = 1e-12;
  for (double v : {-2.0, -0.5, 0.0, 0.3, 1.7}) {
    const D2 x = D2::variable(v, 0);
    const D2 cdf = normal_terms(x).cdf;
    const D2 pdf = normal_terms(x).pdf;
    EXPECT_NEAR(cdf.grad(0), pdf.value(), kTol) << "x=" << v;
    EXPECT_NEAR(pdf.grad(0), -v * pdf.value(), kTol) << "x=" << v;
    EXPECT_NEAR(cdf.hess(0, 0), -v * pdf.value(), kTol) << "x=" << v;
  }
}

}  // namespace
}  // namespace statsize::stat
