// Unit tests for the second-order forward autodiff type Dual2<N>.
//
// Every test compares propagated derivatives against hand-computed closed
// forms; the final suites sweep parameterized inputs so the operator algebra
// is exercised away from special points.

#include "autodiff/dual2.h"

#include <cmath>

#include <gtest/gtest.h>

namespace statsize::autodiff {
namespace {

using D2 = Dual2<2>;
using D3 = Dual2<3>;

constexpr double kTol = 1e-12;

TEST(Dual2, ConstantHasZeroDerivatives) {
  const D2 c = D2::constant(3.5);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
  for (int i = 0; i < 2; ++i) {
    EXPECT_DOUBLE_EQ(c.grad(i), 0.0);
    for (int j = i; j < 2; ++j) EXPECT_DOUBLE_EQ(c.hess(i, j), 0.0);
  }
}

TEST(Dual2, VariableSeedsUnitGradient) {
  const D3 x = D3::variable(2.0, 1);
  EXPECT_DOUBLE_EQ(x.value(), 2.0);
  EXPECT_DOUBLE_EQ(x.grad(0), 0.0);
  EXPECT_DOUBLE_EQ(x.grad(1), 1.0);
  EXPECT_DOUBLE_EQ(x.grad(2), 0.0);
}

TEST(Dual2, HessIndexCoversPackedTriangle) {
  // All (i,j) pairs with i<=j must map to distinct indices in [0, size).
  bool seen[D3::kHessSize] = {};
  for (int i = 0; i < 3; ++i) {
    for (int j = i; j < 3; ++j) {
      const int k = D3::hess_index(i, j);
      ASSERT_GE(k, 0);
      ASSERT_LT(k, D3::kHessSize);
      EXPECT_FALSE(seen[k]);
      seen[k] = true;
      EXPECT_EQ(k, D3::hess_index(j, i));
    }
  }
}

TEST(Dual2, ProductRule) {
  // f(x, y) = x * y at (3, 5): grad = (5, 3), hess = [[0,1],[1,0]].
  const D2 x = D2::variable(3.0, 0);
  const D2 y = D2::variable(5.0, 1);
  const D2 f = x * y;
  EXPECT_DOUBLE_EQ(f.value(), 15.0);
  EXPECT_DOUBLE_EQ(f.grad(0), 5.0);
  EXPECT_DOUBLE_EQ(f.grad(1), 3.0);
  EXPECT_DOUBLE_EQ(f.hess(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(f.hess(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(f.hess(1, 1), 0.0);
}

TEST(Dual2, QuotientRule) {
  // f(x, y) = x / y at (1, 2).
  const D2 x = D2::variable(1.0, 0);
  const D2 y = D2::variable(2.0, 1);
  const D2 f = x / y;
  EXPECT_NEAR(f.value(), 0.5, kTol);
  EXPECT_NEAR(f.grad(0), 0.5, kTol);              // 1/y
  EXPECT_NEAR(f.grad(1), -0.25, kTol);            // -x/y^2
  EXPECT_NEAR(f.hess(0, 0), 0.0, kTol);
  EXPECT_NEAR(f.hess(0, 1), -0.25, kTol);         // -1/y^2
  EXPECT_NEAR(f.hess(1, 1), 0.25, kTol);          // 2x/y^3
}

TEST(Dual2, SqrtDerivatives) {
  const D2 x = D2::variable(4.0, 0);
  const D2 f = sqrt(x);
  EXPECT_NEAR(f.value(), 2.0, kTol);
  EXPECT_NEAR(f.grad(0), 0.25, kTol);             // 1/(2 sqrt(x))
  EXPECT_NEAR(f.hess(0, 0), -1.0 / 32.0, kTol);   // -1/(4 x^{3/2})
}

TEST(Dual2, ExpLogRoundTrip) {
  const D2 x = D2::variable(0.7, 0);
  const D2 f = log(exp(x));
  EXPECT_NEAR(f.value(), 0.7, kTol);
  EXPECT_NEAR(f.grad(0), 1.0, kTol);
  EXPECT_NEAR(f.hess(0, 0), 0.0, 1e-10);
}

TEST(Dual2, UnaryMinusNegatesEverything) {
  const D2 x = D2::variable(1.5, 0);
  const D2 y = D2::variable(-0.5, 1);
  const D2 f = x * x * y;
  const D2 g = -f;
  EXPECT_DOUBLE_EQ(g.value(), -f.value());
  for (int i = 0; i < 2; ++i) {
    EXPECT_DOUBLE_EQ(g.grad(i), -f.grad(i));
    for (int j = i; j < 2; ++j) EXPECT_DOUBLE_EQ(g.hess(i, j), -f.hess(i, j));
  }
}

TEST(Dual2, ComparisonUsesValues) {
  const D2 a = D2::variable(1.0, 0);
  const D2 b = D2::variable(2.0, 1);
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(b > a);
  EXPECT_TRUE(a <= a);
  EXPECT_TRUE(a >= a);
}

// --- Parameterized sweep: a nontrivial composite function vs closed form ---
//
// f(x, y) = exp(x * y) / sqrt(x + y)  with closed-form gradient/Hessian
// computed symbolically below.

class CompositeSweep : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(CompositeSweep, MatchesClosedForm) {
  const auto [xv, yv] = GetParam();
  const D2 x = D2::variable(xv, 0);
  const D2 y = D2::variable(yv, 1);
  const D2 f = exp(x * y) / sqrt(x + y);

  const double s = xv + yv;
  const double e = std::exp(xv * yv);
  const double val = e / std::sqrt(s);
  // fx = e^{xy} (y / sqrt(s) - 1/(2 s^{3/2}))
  const double fx = e * (yv / std::sqrt(s) - 0.5 / std::pow(s, 1.5));
  const double fy = e * (xv / std::sqrt(s) - 0.5 / std::pow(s, 1.5));
  EXPECT_NEAR(f.value(), val, 1e-12 * std::abs(val) + 1e-12);
  EXPECT_NEAR(f.grad(0), fx, 1e-10 * std::abs(fx) + 1e-10);
  EXPECT_NEAR(f.grad(1), fy, 1e-10 * std::abs(fy) + 1e-10);

  // Hessian via central finite differences of the closed-form gradient.
  const double h = 1e-6;
  auto grad_x = [](double xa, double ya) {
    const double ss = xa + ya;
    return std::exp(xa * ya) * (ya / std::sqrt(ss) - 0.5 / std::pow(ss, 1.5));
  };
  auto grad_y = [](double xa, double ya) {
    const double ss = xa + ya;
    return std::exp(xa * ya) * (xa / std::sqrt(ss) - 0.5 / std::pow(ss, 1.5));
  };
  const double fxx = (grad_x(xv + h, yv) - grad_x(xv - h, yv)) / (2 * h);
  const double fxy = (grad_x(xv, yv + h) - grad_x(xv, yv - h)) / (2 * h);
  const double fyy = (grad_y(xv, yv + h) - grad_y(xv, yv - h)) / (2 * h);
  const double tol = 1e-5 * (1.0 + std::abs(fxx) + std::abs(fyy));
  EXPECT_NEAR(f.hess(0, 0), fxx, tol);
  EXPECT_NEAR(f.hess(0, 1), fxy, tol);
  EXPECT_NEAR(f.hess(1, 1), fyy, tol);
}

INSTANTIATE_TEST_SUITE_P(Grid, CompositeSweep,
                         ::testing::Values(std::pair{0.5, 0.5}, std::pair{1.0, 2.0},
                                           std::pair{0.2, 1.7}, std::pair{2.5, 0.1},
                                           std::pair{1.3, 1.3}, std::pair{3.0, 0.5}));

}  // namespace
}  // namespace statsize::autodiff
