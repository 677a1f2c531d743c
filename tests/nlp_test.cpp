// Tests for the NLP solver stack: element/group machinery, the trust-region
// inner solver on classic unconstrained/bound-constrained problems, the
// augmented Lagrangian on Hock–Schittkowski-style equality problems, and the
// projected L-BFGS used by the reduced-space sizer.

#include "nlp/auglag.h"
#include "nlp/derivative_check.h"
#include "nlp/problem.h"
#include "nlp/projected_lbfgs.h"
#include "nlp/tron.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

namespace statsize::nlp {
namespace {

// ---------------------------------------------------------------------------
// Elements and groups.
// ---------------------------------------------------------------------------

TEST(Elements, ProductSquareValuesAndDerivatives) {
  ProductElement prod;
  SquareElement sq;
  double x[2] = {3.0, 4.0};
  double g[2];
  double h[3];

  EXPECT_DOUBLE_EQ(prod.eval(x, g, h), 12.0);
  EXPECT_DOUBLE_EQ(g[0], 4.0);
  EXPECT_DOUBLE_EQ(g[1], 3.0);
  EXPECT_DOUBLE_EQ(h[packed_index(2, 0, 1)], 1.0);

  EXPECT_DOUBLE_EQ(sq.eval(x, g, h), 9.0);
  EXPECT_DOUBLE_EQ(g[0], 6.0);
  EXPECT_DOUBLE_EQ(h[0], 2.0);
}

TEST(Elements, PackedIndexLayout) {
  // 3-var packed upper triangle: (0,0)=0 (0,1)=1 (0,2)=2 (1,1)=3 (1,2)=4 (2,2)=5
  EXPECT_EQ(packed_index(3, 0, 0), 0);
  EXPECT_EQ(packed_index(3, 0, 2), 2);
  EXPECT_EQ(packed_index(3, 1, 1), 3);
  EXPECT_EQ(packed_index(3, 2, 1), 4);  // symmetric access
  EXPECT_EQ(packed_index(3, 2, 2), 5);
}

TEST(FunctionGroup, EvalAndGradient) {
  Problem p;
  const int x0 = p.add_variable(-10, 10, 1.0);
  const int x1 = p.add_variable(-10, 10, 2.0);
  const ElementFunction* prod = p.own(std::make_unique<ProductElement>());

  FunctionGroup g;
  g.constant = 5.0;
  g.linear = {{x0, 2.0}, {x1, -1.0}};
  g.elements = {{prod, {x0, x1}, 3.0}};

  const std::vector<double> x = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(g.eval(x), 5.0 + 2.0 - 2.0 + 3.0 * 2.0);

  std::vector<double> grad(2, 0.0);
  g.accumulate_grad(x, 2.0, grad);
  EXPECT_DOUBLE_EQ(grad[0], 2.0 * (2.0 + 3.0 * 2.0));
  EXPECT_DOUBLE_EQ(grad[1], 2.0 * (-1.0 + 3.0 * 1.0));
}

TEST(ProblemClass, ValidationCatchesBadIndices) {
  Problem p;
  p.add_variable(0, 1, 0.5);
  FunctionGroup g;
  g.linear = {{7, 1.0}};
  p.set_objective(g);
  EXPECT_THROW(p.validate(), std::runtime_error);
}

TEST(ProblemClass, InequalityAddsBoundedSlack) {
  Problem p;
  const int x0 = p.add_variable(0, 10, 5.0);
  FunctionGroup g;
  g.linear = {{x0, 1.0}};
  p.add_inequality(std::move(g), 3.0);
  EXPECT_EQ(p.num_vars(), 2);                   // slack added
  EXPECT_DOUBLE_EQ(p.lower()[1], 0.0);
  EXPECT_TRUE(std::isinf(p.upper()[1]));
  // With x0 = 2 and slack = 1 the constraint 2 + 1 - 3 = 0 holds.
  EXPECT_NEAR(p.constraint(0).eval({2.0, 1.0}), 0.0, 1e-15);
}

TEST(Elements, SqrtElementAndLinearExtension) {
  SqrtElement sq(0.04);  // floor at 0.04 -> sqrt = 0.2, slope = 2.5
  double x[1] = {0.25};
  double g[1];
  double h[1];
  EXPECT_DOUBLE_EQ(sq.eval(x, g, h), 0.5);
  EXPECT_DOUBLE_EQ(g[0], 1.0);              // 1/(2 sqrt(0.25))
  EXPECT_DOUBLE_EQ(h[0], -2.0);             // -1/(4 x^{3/2}) = -1/(4*0.125)

  // At the floor the value and slope are continuous...
  x[0] = 0.04;
  EXPECT_DOUBLE_EQ(sq.eval(x, g, nullptr), 0.2);
  EXPECT_DOUBLE_EQ(g[0], 2.5);
  // ...and below it the extension is linear with zero curvature.
  x[0] = 0.0;
  EXPECT_NEAR(sq.eval(x, g, h), 0.2 - 2.5 * 0.04, 1e-15);
  EXPECT_DOUBLE_EQ(g[0], 2.5);
  EXPECT_DOUBLE_EQ(h[0], 0.0);
  // Even negative transients stay finite.
  x[0] = -1.0;
  EXPECT_TRUE(std::isfinite(sq.eval(x, g, h)));
}

TEST(Elements, SqrtElementDefaultFloorIsTiny) {
  SqrtElement sq;
  double x[1] = {4.0};
  EXPECT_DOUBLE_EQ(sq.eval(x, nullptr, nullptr), 2.0);
}

// ---------------------------------------------------------------------------
// Trust-region inner solver on standalone models.
// ---------------------------------------------------------------------------

/// Rosenbrock in n dimensions with analytic Hessian-vector products.
class RosenbrockModel final : public SmoothModel {
 public:
  explicit RosenbrockModel(int n) : n_(n) {}
  int num_vars() const override { return n_; }

  double eval(const std::vector<double>& x, std::vector<double>* grad) override {
    if (grad != nullptr) {
      x_ = x;
      grad->assign(static_cast<std::size_t>(n_), 0.0);
    }
    double f = 0.0;
    for (int i = 0; i + 1 < n_; ++i) {
      const double a = x[i + 1] - x[i] * x[i];
      const double b = 1.0 - x[i];
      f += 100.0 * a * a + b * b;
      if (grad != nullptr) {
        (*grad)[i] += -400.0 * a * x[i] - 2.0 * b;
        (*grad)[i + 1] += 200.0 * a;
      }
    }
    return f;
  }

  void hess_vec(const std::vector<double>& v, std::vector<double>& hv) const override {
    hv.assign(static_cast<std::size_t>(n_), 0.0);
    for (int i = 0; i + 1 < n_; ++i) {
      const double xi = x_[i];
      const double h11 = 1200.0 * xi * xi - 400.0 * x_[i + 1] + 2.0;
      const double h12 = -400.0 * xi;
      hv[i] += h11 * v[i] + h12 * v[i + 1];
      hv[i + 1] += h12 * v[i] + 200.0 * v[i + 1];
    }
  }

 private:
  int n_;
  std::vector<double> x_;
};

TEST(TrustRegion, SolvesRosenbrock2D) {
  RosenbrockModel model(2);
  std::vector<double> x = {-1.2, 1.0};
  const std::vector<double> lo(2, -kInfinity);
  const std::vector<double> hi(2, kInfinity);
  TrustRegionOptions opt;
  opt.tol = 1e-8;
  opt.max_iterations = 500;
  const TrustRegionResult r = minimize_bound_constrained(model, x, lo, hi, opt);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(x[0], 1.0, 1e-5);
  EXPECT_NEAR(x[1], 1.0, 1e-5);
}

TEST(TrustRegion, SolvesRosenbrock20D) {
  RosenbrockModel model(20);
  std::vector<double> x(20, -1.0);
  const std::vector<double> lo(20, -kInfinity);
  const std::vector<double> hi(20, kInfinity);
  TrustRegionOptions opt;
  opt.tol = 1e-7;
  opt.max_iterations = 2000;
  const TrustRegionResult r = minimize_bound_constrained(model, x, lo, hi, opt);
  EXPECT_TRUE(r.converged);
  for (double xi : x) EXPECT_NEAR(xi, 1.0, 1e-4);
}

TEST(TrustRegion, RespectsActiveBounds) {
  // min (x-3)^2 + (y+2)^2 on [0,1]^2 -> (1, 0).
  class Quad final : public SmoothModel {
   public:
    int num_vars() const override { return 2; }
    double eval(const std::vector<double>& x, std::vector<double>* grad) override {
      if (grad != nullptr) {
        grad->resize(2);
        (*grad)[0] = 2.0 * (x[0] - 3.0);
        (*grad)[1] = 2.0 * (x[1] + 2.0);
      }
      return (x[0] - 3.0) * (x[0] - 3.0) + (x[1] + 2.0) * (x[1] + 2.0);
    }
    void hess_vec(const std::vector<double>& v, std::vector<double>& hv) const override {
      hv = {2.0 * v[0], 2.0 * v[1]};
    }
  } model;
  std::vector<double> x = {0.5, 0.5};
  const TrustRegionResult r =
      minimize_bound_constrained(model, x, {0.0, 0.0}, {1.0, 1.0}, {});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(x[0], 1.0, 1e-8);
  EXPECT_NEAR(x[1], 0.0, 1e-8);
}

TEST(TrustRegion, StartsAtOptimum) {
  class Quad final : public SmoothModel {
   public:
    int num_vars() const override { return 1; }
    double eval(const std::vector<double>& x, std::vector<double>* grad) override {
      if (grad != nullptr) *grad = {2.0 * x[0]};
      return x[0] * x[0];
    }
    void hess_vec(const std::vector<double>& v, std::vector<double>& hv) const override {
      hv = {2.0 * v[0]};
    }
  } model;
  std::vector<double> x = {0.0};
  const TrustRegionResult r =
      minimize_bound_constrained(model, x, {-1.0}, {1.0}, {});
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 1);
}

TEST(ProjectedGradientNorm, ZeroAtConstrainedStationaryPoint) {
  // x at lower bound with positive gradient: projection cannot move.
  EXPECT_DOUBLE_EQ(projected_gradient_norm({0.0}, {5.0}, {0.0}, {1.0}), 0.0);
  EXPECT_DOUBLE_EQ(projected_gradient_norm({0.5}, {0.2}, {0.0}, {1.0}), 0.2);
}

TEST(TrustRegion, EscapesNonConvexSaddleRegion) {
  // f(x, y) = x^2 - y^2 on [-1, 1]^2 from the saddle: negative curvature must
  // drive y to a bound, giving f = x^2 - 1 minimized at (0, +-1).
  class Saddle final : public SmoothModel {
   public:
    int num_vars() const override { return 2; }
    double eval(const std::vector<double>& x, std::vector<double>* grad) override {
      if (grad != nullptr) *grad = {2.0 * x[0], -2.0 * x[1]};
      return x[0] * x[0] - x[1] * x[1];
    }
    void hess_vec(const std::vector<double>& v, std::vector<double>& hv) const override {
      hv = {2.0 * v[0], -2.0 * v[1]};
    }
  } model;
  std::vector<double> x = {0.4, 1e-3};  // slightly off the saddle
  const TrustRegionResult r =
      minimize_bound_constrained(model, x, {-1.0, -1.0}, {1.0, 1.0}, {});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(x[0], 0.0, 1e-6);
  EXPECT_NEAR(std::abs(x[1]), 1.0, 1e-9);
}

TEST(TrustRegion, StagnationWindowStopsHopelessGrind) {
  // An almost-flat valley (curvature 1e-12): progress per iteration is below
  // the stagnation threshold, so the solver must give up quickly instead of
  // consuming the whole iteration budget.
  class Flat final : public SmoothModel {
   public:
    int num_vars() const override { return 1; }
    double eval(const std::vector<double>& x, std::vector<double>* grad) override {
      if (grad != nullptr) *grad = {1e-12 * x[0] + 1e-3};
      return 0.5e-12 * x[0] * x[0] + 1e-3 * x[0];
    }
    void hess_vec(const std::vector<double>& v, std::vector<double>& hv) const override {
      hv = {1e-12 * v[0]};
    }
  } model;
  std::vector<double> x = {0.0};
  TrustRegionOptions opt;
  opt.tol = 1e-14;  // unreachable
  opt.max_iterations = 5000;
  const TrustRegionResult r =
      minimize_bound_constrained(model, x, {-1e9}, {1e9}, opt);
  EXPECT_LT(r.iterations, 2000);  // bailed out long before the budget
}

// ---------------------------------------------------------------------------
// Augmented Lagrangian on equality-constrained problems with known solutions.
// ---------------------------------------------------------------------------

/// Helper: x^T Q x /2 style quadratic objective via elements.
std::unique_ptr<Problem> make_hs6() {
  // HS6: min (1-x0)^2 s.t. 10(x1 - x0^2) = 0, solution (1,1), f*=0.
  auto p = std::make_unique<Problem>();
  const int x0 = p->add_variable(-kInfinity, kInfinity, -1.2);
  const int x1 = p->add_variable(-kInfinity, kInfinity, 1.0);
  const ElementFunction* sq = p->own(std::make_unique<SquareElement>());

  FunctionGroup obj;  // (1 - x0)^2 = 1 - 2 x0 + x0^2
  obj.constant = 1.0;
  obj.linear = {{x0, -2.0}};
  obj.elements = {{sq, {x0}, 1.0}};
  p->set_objective(std::move(obj));

  FunctionGroup c;  // 10 x1 - 10 x0^2 = 0
  c.linear = {{x1, 10.0}};
  c.elements = {{sq, {x0}, -10.0}};
  p->add_equality(std::move(c));
  return p;
}

TEST(AugLag, SolvesHs6) {
  auto p = make_hs6();
  const SolveResult r = solve_augmented_lagrangian(*p);
  EXPECT_TRUE(r.ok()) << r.status_string();
  EXPECT_NEAR(r.x[0], 1.0, 1e-4);
  EXPECT_NEAR(r.x[1], 1.0, 1e-4);
  EXPECT_NEAR(r.objective, 0.0, 1e-6);
  EXPECT_LE(r.constraint_violation, 1e-6);
}

TEST(AugLag, SolvesHs28) {
  // HS28: min (x0+x1)^2 + (x1+x2)^2 s.t. x0 + 2x1 + 3x2 = 1.
  // Solution (0.5, -0.5, 0.5), f* = 0.
  Problem p;
  const int x0 = p.add_variable(-kInfinity, kInfinity, -4.0);
  const int x1 = p.add_variable(-kInfinity, kInfinity, 1.0);
  const int x2 = p.add_variable(-kInfinity, kInfinity, 1.0);
  const ElementFunction* sq = p.own(std::make_unique<SquareElement>());
  const ElementFunction* prod = p.own(std::make_unique<ProductElement>());

  FunctionGroup obj;  // x0^2 + 2x1^2 + x2^2 + 2 x0 x1 + 2 x1 x2
  obj.elements = {{sq, {x0}, 1.0},      {sq, {x1}, 2.0},      {sq, {x2}, 1.0},
                  {prod, {x0, x1}, 2.0}, {prod, {x1, x2}, 2.0}};
  p.set_objective(std::move(obj));

  FunctionGroup c;
  c.constant = -1.0;
  c.linear = {{x0, 1.0}, {x1, 2.0}, {x2, 3.0}};
  p.add_equality(std::move(c));

  const SolveResult r = solve_augmented_lagrangian(p);
  EXPECT_TRUE(r.ok()) << r.status_string();
  EXPECT_NEAR(r.x[0], 0.5, 1e-4);
  EXPECT_NEAR(r.x[1], -0.5, 1e-4);
  EXPECT_NEAR(r.x[2], 0.5, 1e-4);
}

TEST(AugLag, EqualityWithBoundsActive) {
  // min x0 + x1 s.t. x0 * x1 = 4, x in [1, 10]^2 -> (2, 2) (symmetric), f*=4.
  Problem p;
  const int x0 = p.add_variable(1.0, 10.0, 5.0);
  const int x1 = p.add_variable(1.0, 10.0, 1.0);
  const ElementFunction* prod = p.own(std::make_unique<ProductElement>());
  FunctionGroup obj;
  obj.linear = {{x0, 1.0}, {x1, 1.0}};
  p.set_objective(std::move(obj));
  FunctionGroup c;
  c.constant = -4.0;
  c.elements = {{prod, {x0, x1}, 1.0}};
  p.add_equality(std::move(c));

  const SolveResult r = solve_augmented_lagrangian(p);
  EXPECT_TRUE(r.ok()) << r.status_string();
  EXPECT_NEAR(r.x[0] * r.x[1], 4.0, 1e-5);
  EXPECT_NEAR(r.objective, 4.0, 1e-4);
}

TEST(AugLag, InequalityBecomesActiveWhenBinding) {
  // min (x-5)^2 s.t. x <= 3, x in [0, 10] -> x = 3.
  Problem p;
  const int x = p.add_variable(0.0, 10.0, 0.0);
  const ElementFunction* sq = p.own(std::make_unique<SquareElement>());
  FunctionGroup obj;  // x^2 - 10x + 25
  obj.constant = 25.0;
  obj.linear = {{x, -10.0}};
  obj.elements = {{sq, {x}, 1.0}};
  p.set_objective(std::move(obj));
  FunctionGroup g;
  g.linear = {{x, 1.0}};
  p.add_inequality(std::move(g), 3.0);

  const SolveResult r = solve_augmented_lagrangian(p);
  EXPECT_TRUE(r.ok()) << r.status_string();
  EXPECT_NEAR(r.x[0], 3.0, 1e-5);
}

TEST(AugLag, InequalityInactiveWhenSlack) {
  // min (x-2)^2 s.t. x <= 8 -> unconstrained optimum x = 2.
  Problem p;
  const int x = p.add_variable(0.0, 10.0, 7.0);
  const ElementFunction* sq = p.own(std::make_unique<SquareElement>());
  FunctionGroup obj;
  obj.constant = 4.0;
  obj.linear = {{x, -4.0}};
  obj.elements = {{sq, {x}, 1.0}};
  p.set_objective(std::move(obj));
  FunctionGroup g;
  g.linear = {{x, 1.0}};
  p.add_inequality(std::move(g), 8.0);

  const SolveResult r = solve_augmented_lagrangian(p);
  EXPECT_TRUE(r.ok()) << r.status_string();
  EXPECT_NEAR(r.x[0], 2.0, 1e-5);
}

TEST(AugLag, MultiplierEstimatesAreLagrangeMultipliers) {
  // min x0^2 + x1^2 s.t. x0 + x1 = 2: solution (1,1), multiplier lambda = 2
  // (gradient condition 2 x = lambda * [1,1]).
  Problem p;
  const int x0 = p.add_variable(-kInfinity, kInfinity, 0.0);
  const int x1 = p.add_variable(-kInfinity, kInfinity, 0.0);
  const ElementFunction* sq = p.own(std::make_unique<SquareElement>());
  FunctionGroup obj;
  obj.elements = {{sq, {x0}, 1.0}, {sq, {x1}, 1.0}};
  p.set_objective(std::move(obj));
  FunctionGroup c;
  c.constant = -2.0;
  c.linear = {{x0, 1.0}, {x1, 1.0}};
  p.add_equality(std::move(c));

  const SolveResult r = solve_augmented_lagrangian(p);
  EXPECT_TRUE(r.ok());
  EXPECT_NEAR(r.x[0], 1.0, 1e-5);
  EXPECT_NEAR(r.multipliers[0], 2.0, 1e-3);
}

TEST(AugLagWarmStart, EmptyWarmStartMatchesPlainOverloadBitwise) {
  auto p = make_hs6();
  const SolveResult plain = solve_augmented_lagrangian(*p);
  const SolveResult warm = solve_augmented_lagrangian(*p, {}, WarmStart{});
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(plain.x.size(), warm.x.size());
  for (std::size_t i = 0; i < plain.x.size(); ++i) EXPECT_EQ(plain.x[i], warm.x[i]);
  EXPECT_EQ(plain.outer_iterations, warm.outer_iterations);
  EXPECT_EQ(plain.final_rho, warm.final_rho);
}

TEST(AugLagWarmStart, RejectsSizeMismatchesAndNonFiniteRho) {
  auto p = make_hs6();
  WarmStart bad_x;
  bad_x.x = {1.0};  // problem has 2 vars
  EXPECT_THROW(solve_augmented_lagrangian(*p, {}, bad_x), std::invalid_argument);
  WarmStart bad_m;
  bad_m.multipliers = {0.0, 0.0};  // problem has 1 constraint
  EXPECT_THROW(solve_augmented_lagrangian(*p, {}, bad_m), std::invalid_argument);
  WarmStart bad_rho;
  bad_rho.rho = std::nan("");
  EXPECT_THROW(solve_augmented_lagrangian(*p, {}, bad_rho), std::invalid_argument);
}

TEST(AugLagWarmStart, RejectsNonFiniteMultiplierNamingItsIndex) {
  auto p = make_hs6();
  WarmStart bad;
  bad.multipliers = {std::nan("")};
  try {
    solve_augmented_lagrangian(*p, {}, bad);
    ADD_FAILURE() << "a NaN multiplier was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("multiplier #0"), std::string::npos) << e.what();
  }
  bad.multipliers = {std::numeric_limits<double>::infinity()};
  EXPECT_THROW(solve_augmented_lagrangian(*p, {}, bad), std::invalid_argument);
}

TEST(AugLagWarmStart, ResolveFromConvergedStateTakesFewerOuterIterations) {
  auto p = make_hs6();
  const SolveResult cold = solve_augmented_lagrangian(*p);
  ASSERT_TRUE(cold.ok());
  ASSERT_GT(cold.outer_iterations, 1);

  WarmStart warm;
  warm.x = cold.x;
  warm.multipliers = cold.multipliers;
  warm.rho = cold.final_rho;
  const SolveResult resumed = solve_augmented_lagrangian(*p, {}, warm);
  ASSERT_TRUE(resumed.ok()) << resumed.status_string();
  EXPECT_LT(resumed.outer_iterations, cold.outer_iterations);
  EXPECT_NEAR(resumed.x[0], 1.0, 1e-4);
  EXPECT_NEAR(resumed.x[1], 1.0, 1e-4);
}

TEST(AugLagModel, GradientMatchesFiniteDifference) {
  auto p = make_hs6();
  AugLagModel model(*p, {0.7}, 13.0);
  const std::vector<double> x = {0.3, -0.4};
  std::vector<double> grad;
  const double f = model.eval(x, &grad);
  for (int i = 0; i < 2; ++i) {
    std::vector<double> xp = x;
    const double h = 1e-7;
    xp[static_cast<std::size_t>(i)] += h;
    const double fp = model.eval(xp, nullptr);
    xp[static_cast<std::size_t>(i)] -= 2 * h;
    const double fm = model.eval(xp, nullptr);
    EXPECT_NEAR(grad[static_cast<std::size_t>(i)], (fp - fm) / (2 * h), 1e-5 * (1 + std::abs(f)));
  }
}

TEST(AugLagModel, HessVecMatchesFiniteDifferenceOfGradient) {
  auto p = make_hs6();
  AugLagModel model(*p, {0.7}, 13.0);
  const std::vector<double> x = {0.3, -0.4};
  std::vector<double> g0;
  model.eval(x, &g0);

  std::mt19937 rng(5);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> v = {u(rng), u(rng)};
    std::vector<double> hv;
    model.hess_vec(v, hv);
    const double h = 1e-6;
    std::vector<double> xp = x;
    std::vector<double> gp;
    std::vector<double> gm;
    for (std::size_t i = 0; i < 2; ++i) xp[i] = x[i] + h * v[i];
    model.eval(xp, &gp);
    for (std::size_t i = 0; i < 2; ++i) xp[i] = x[i] - h * v[i];
    model.eval(xp, &gm);
    model.eval(x, &g0);  // restore snapshot at x
    for (std::size_t i = 0; i < 2; ++i) {
      EXPECT_NEAR(hv[i], (gp[i] - gm[i]) / (2 * h), 2e-4 * (1 + std::abs(hv[i])));
    }
  }
}

TEST(DerivativeCheck, AcceptsCorrectProblem) {
  auto p = make_hs6();
  const DerivativeReport rep = check_problem_derivatives(*p, {0.4, 0.9});
  EXPECT_TRUE(rep.ok(1e-6)) << rep.max_gradient_error << " " << rep.max_hessian_error;
}

TEST(DerivativeCheck, FlagsWrongGradient) {
  /// An element with a deliberately wrong derivative.
  class Broken final : public ElementFunction {
   public:
    int arity() const override { return 1; }
    double eval(const double* x, double* grad, double* hess) const override {
      if (grad != nullptr) grad[0] = 3.0 * x[0];  // should be 2 x
      if (hess != nullptr) hess[0] = 2.0;
      return x[0] * x[0];
    }
  };
  Problem p;
  const int x = p.add_variable(-1, 1, 0.5);
  const ElementFunction* bad = p.own(std::make_unique<Broken>());
  FunctionGroup obj;
  obj.elements = {{bad, {x}, 1.0}};
  p.set_objective(std::move(obj));
  const DerivativeReport rep = check_problem_derivatives(p, {0.5});
  EXPECT_FALSE(rep.ok(1e-4));
}

TEST(AugLag, AcceptableStatusCountsAsOk) {
  SolveResult r;
  r.status = SolveStatus::kAcceptable;
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.status_string(), "acceptable");
  r.status = SolveStatus::kStalled;
  EXPECT_FALSE(r.ok());
}

// ---------------------------------------------------------------------------
// Projected L-BFGS.
// ---------------------------------------------------------------------------

/// Adapts a combined f-and-gradient function to the split objective: value()
/// evaluates both and keeps the gradient for the gradient() call that may
/// follow.
template <class Fn>
LbfgsObjective split(Fn fn) {
  auto g_last = std::make_shared<std::vector<double>>();
  return {[fn, g_last](const std::vector<double>& x) { return fn(x, *g_last); },
          [g_last](std::vector<double>& g) { g = *g_last; }};
}

double rosenbrock(const std::vector<double>& x, std::vector<double>& g) {
  const double a = x[1] - x[0] * x[0];
  const double b = 1.0 - x[0];
  g.resize(2);
  g[0] = -400.0 * a * x[0] - 2.0 * b;
  g[1] = 200.0 * a;
  return 100.0 * a * a + b * b;
}

TEST(ProjectedLbfgs, SolvesRosenbrock) {
  std::vector<double> x = {-1.2, 1.0};
  const std::vector<double> lo(2, -10.0);
  const std::vector<double> hi(2, 10.0);
  LbfgsOptions opt;
  opt.tol = 1e-7;
  opt.max_iterations = 2000;
  const LbfgsResult r = minimize_projected_lbfgs(split(rosenbrock), x, lo, hi, opt);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(x[0], 1.0, 1e-4);
  EXPECT_NEAR(x[1], 1.0, 1e-4);
}

TEST(ProjectedLbfgs, RespectsBounds) {
  auto fn = [](const std::vector<double>& x, std::vector<double>& g) {
    g.resize(2);
    g[0] = 2.0 * (x[0] - 3.0);
    g[1] = 2.0 * (x[1] + 2.0);
    return (x[0] - 3.0) * (x[0] - 3.0) + (x[1] + 2.0) * (x[1] + 2.0);
  };
  std::vector<double> x = {0.5, 0.5};
  const LbfgsResult r = minimize_projected_lbfgs(split(fn), x, {0.0, 0.0}, {1.0, 1.0}, {});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(x[0], 1.0, 1e-7);
  EXPECT_NEAR(x[1], 0.0, 1e-7);
}

TEST(ProjectedLbfgs, HighDimensionalQuadratic) {
  // Ill-conditioned diagonal quadratic, n = 200.
  const int n = 200;
  auto fn = [n](const std::vector<double>& x, std::vector<double>& g) {
    g.resize(static_cast<std::size_t>(n));
    double f = 0.0;
    for (int i = 0; i < n; ++i) {
      const double w = 1.0 + 99.0 * i / (n - 1);
      const double t = x[static_cast<std::size_t>(i)] - 1.0;
      f += 0.5 * w * t * t;
      g[static_cast<std::size_t>(i)] = w * t;
    }
    return f;
  };
  std::vector<double> x(n, 0.0);
  const std::vector<double> lo(n, -kInfinity);
  const std::vector<double> hi(n, kInfinity);
  LbfgsOptions opt;
  opt.tol = 1e-6;
  opt.max_iterations = 1000;
  const LbfgsResult r = minimize_projected_lbfgs(split(fn), x, lo, hi, opt);
  EXPECT_TRUE(r.converged);
  for (int i = 0; i < n; i += 37) EXPECT_NEAR(x[static_cast<std::size_t>(i)], 1.0, 1e-5);
}

TEST(ProjectedLbfgs, GradientOnlyAtStartAndAcceptedIterates) {
  // A value-only trial must never be followed by a gradient request unless
  // the line search accepts it. The mock logs every value() point and which
  // of them gradient() was asked at: the first must be the start, each later
  // one must be the point the next line search starts from (every trial
  // after it is a step away from it), and the last must be the returned x.
  struct Log {
    std::vector<std::vector<double>> points;
    std::vector<bool> with_gradient;
  };
  auto log = std::make_shared<Log>();
  LbfgsObjective fn;
  fn.value = [log](const std::vector<double>& x) {
    log->points.push_back(x);
    log->with_gradient.push_back(false);
    std::vector<double> g;
    return rosenbrock(x, g);
  };
  fn.gradient = [log](std::vector<double>& g) {
    ASSERT_FALSE(log->points.empty()) << "gradient() before any value()";
    ASSERT_FALSE(log->with_gradient.back()) << "gradient() twice for one value()";
    log->with_gradient.back() = true;
    rosenbrock(log->points.back(), g);
  };

  const std::vector<double> start = {-1.2, 1.0};
  std::vector<double> x = start;
  LbfgsOptions opt;
  opt.tol = 1e-7;
  opt.max_iterations = 2000;
  const LbfgsResult r = minimize_projected_lbfgs(fn, x, std::vector<double>(2, -10.0),
                                                 std::vector<double>(2, 10.0), opt);
  ASSERT_TRUE(r.converged);

  ASSERT_TRUE(log->with_gradient.front());
  EXPECT_EQ(log->points.front(), start);
  EXPECT_EQ(r.value_evals, static_cast<int>(log->points.size()));
  // Converged: every iteration but the last accepted one step.
  EXPECT_EQ(r.gradient_evals, r.iterations);
  EXPECT_GT(r.value_evals, r.gradient_evals) << "Rosenbrock should need backtracks";

  // Replay: between two gradient points, every value() trial is a rejected
  // one, so its f fails the descent test the accepted point passes; the
  // accepted point's f never rises above its predecessor's.
  std::vector<double> scratch;
  double f_accepted = rosenbrock(start, scratch);
  std::vector<double> last_accepted = start;
  int gradients = 0;
  for (std::size_t k = 0; k < log->points.size(); ++k) {
    if (!log->with_gradient[k]) continue;
    ++gradients;
    const double f_k = rosenbrock(log->points[k], scratch);
    EXPECT_LE(f_k, f_accepted + 1e-12 * (1.0 + std::abs(f_accepted))) << "gradient at point " << k;
    f_accepted = f_k;
    last_accepted = log->points[k];
  }
  EXPECT_EQ(gradients, r.gradient_evals);
  EXPECT_EQ(last_accepted, x);
}

/// Infinity norm of the projected-gradient step P(x - g) - x.
double projected_gradient_norm(const std::vector<double>& x, const std::vector<double>& g,
                               const std::vector<double>& lo, const std::vector<double>& hi) {
  double worst = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    worst = std::max(worst, std::abs(std::clamp(x[i] - g[i], lo[i], hi[i]) - x[i]));
  }
  return worst;
}

TEST(ProjectedLbfgs, MaxIterationsExitReportsTheReturnedPoint) {
  // The iteration cap stops the solver right after an accepted step; the
  // result must describe that step's point, not the one before it.
  std::vector<double> x = {-1.2, 1.0};
  const std::vector<double> lo(2, -10.0);
  const std::vector<double> hi(2, 10.0);
  LbfgsOptions opt;
  opt.max_iterations = 1;
  const LbfgsResult r = minimize_projected_lbfgs(split(rosenbrock), x, lo, hi, opt);
  ASSERT_FALSE(r.converged);
  ASSERT_NE(x, (std::vector<double>{-1.2, 1.0})) << "the one iteration must take a step";
  std::vector<double> g;
  EXPECT_EQ(r.objective, rosenbrock(x, g));
  EXPECT_EQ(r.projected_gradient, projected_gradient_norm(x, g, lo, hi));
}

TEST(ProjectedLbfgs, ActiveBoundsKeepCurvatureMemory) {
  // Coupled convex quadratic 0.5 x'Ax - b'x on the box [0, 1]^50, with A
  // tridiagonal (diagonal 2..4, off-diagonal -0.9) and b = A t, so the
  // unconstrained minimizer is t: 2 in the even coordinates (outside the
  // box) and 0.5 in the odd ones. The even coordinates end on the upper
  // bound. A full-space quasi-Newton step clipped by the box finds no
  // descent there and falls back to steepest descent; the step on the free
  // coordinates keeps its curvature pairs and needs about one trial per
  // iteration.
  const std::size_t n = 50;
  std::vector<double> diag(n);
  std::vector<double> t(n);
  for (std::size_t i = 0; i < n; ++i) {
    diag[i] = 2.0 * (1.0 + static_cast<double>(i) / static_cast<double>(n - 1));
    t[i] = i % 2 == 0 ? 2.0 : 0.5;
  }
  auto times_a = [diag](const std::vector<double>& v) {
    const std::size_t m = v.size();
    std::vector<double> av(m);
    for (std::size_t i = 0; i < m; ++i) {
      av[i] = diag[i] * v[i];
      if (i > 0) av[i] -= 0.9 * v[i - 1];
      if (i + 1 < m) av[i] -= 0.9 * v[i + 1];
    }
    return av;
  };
  const std::vector<double> b = times_a(t);
  auto fn = [times_a, b](const std::vector<double>& x, std::vector<double>& g) {
    const std::vector<double> ax = times_a(x);
    g.resize(x.size());
    double f = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      f += 0.5 * x[i] * ax[i] - b[i] * x[i];
      g[i] = ax[i] - b[i];
    }
    return f;
  };

  std::vector<double> x(n, 0.0);
  const std::vector<double> lo(n, 0.0);
  const std::vector<double> hi(n, 1.0);
  LbfgsOptions opt;
  opt.tol = 1e-8;
  opt.max_iterations = 1000;
  const LbfgsResult r = minimize_projected_lbfgs(split(fn), x, lo, hi, opt);
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.restarts, 0);
  EXPECT_LE(r.value_evals, 1.5 * r.gradient_evals)
      << r.value_evals << " values for " << r.gradient_evals << " gradients";
  for (std::size_t i = 0; i < n; i += 2) EXPECT_EQ(x[i], 1.0) << "coordinate " << i;
}

TEST(ProjectedLbfgs, CoordinateLeavingTheActiveSetKeepsThePinnedPath) {
  // 0.5 x'Ax - b'x + 0.25 sum x_i^4 on [0, 1]^6, A = M'M + 0.1 I, with M, b
  // and the start drawn from mt19937(133) (its output sequence is fixed by
  // the standard). Coordinate 2 enters the active set, leaves it on the
  // next iterate and enters again, so the free set changes under kept
  // curvature pairs, and more pairs are accepted than the history keeps.
  // The iterate path is pinned: x to the bit and the iteration count.
  constexpr std::size_t n = 6;
  std::mt19937 rng(133);
  auto draw = [&rng] { return static_cast<double>(rng() % 20001) / 10000.0 - 1.0; };
  std::vector<double> m(n * n);
  std::vector<double> b(n);
  std::vector<double> x(n);
  for (double& v : m) v = draw();
  for (double& v : b) v = 2.0 * draw();
  for (double& v : x) v = 0.5 + 0.5 * draw();
  std::vector<double> a(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (std::size_t k = 0; k < n; ++k) sum += m[k * n + i] * m[k * n + j];
      a[i * n + j] = sum + (i == j ? 0.1 : 0.0);
    }
  }
  const auto times_a = [&a](const std::vector<double>& v, std::size_t i) {
    double r = 0.0;
    for (std::size_t j = 0; j < n; ++j) r += a[i * n + j] * v[j];
    return r;
  };
  const std::vector<double> lo(n, 0.0);
  const std::vector<double> hi(n, 1.0);
  std::vector<double> at;
  std::vector<bool> active_2;  // coordinate 2 at each gradient point
  const LbfgsObjective fn{
      [&](const std::vector<double>& v) {
        at = v;
        double f = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          f += 0.5 * v[i] * times_a(v, i) - b[i] * v[i] + 0.25 * v[i] * v[i] * v[i] * v[i];
        }
        return f;
      },
      [&](std::vector<double>& g) {
        g.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
          g[i] = times_a(at, i) - b[i] + at[i] * at[i] * at[i];
        }
        active_2.push_back((at[2] <= lo[2] && g[2] > 0.0) || (at[2] >= hi[2] && g[2] < 0.0));
      }};

  const LbfgsResult r = minimize_projected_lbfgs(fn, x, lo, hi);
  ASSERT_TRUE(r.converged);
  const auto entered = std::find(active_2.begin(), active_2.end(), true);
  ASSERT_NE(entered, active_2.end());
  EXPECT_NE(std::find(entered, active_2.end(), false), active_2.end())
      << "coordinate 2 never leaves the active set";
  EXPECT_EQ(r.iterations, 14);
  EXPECT_EQ(r.value_evals, 14);
  EXPECT_EQ(r.gradient_evals, 14);
  const std::vector<double> pinned = {0.36090008564255621, 0.0, 0.0, 0.029016336698978375, 0.0,
                                      0.60918480917445572};
  EXPECT_EQ(x, pinned);
  EXPECT_EQ(r.objective, -0.84556272473541483);
}

// Randomized equality-constrained quadratics: min ||x - a||^2 s.t. b^T x = 1.
// Closed form: x* = a + (1 - b.a)/(b.b) * b.
class AugLagRandomQuadratic : public ::testing::TestWithParam<int> {};

TEST_P(AugLagRandomQuadratic, MatchesClosedForm) {
  std::mt19937 rng(GetParam());
  std::uniform_real_distribution<double> u(-2.0, 2.0);
  const int n = 6;
  std::vector<double> a(n);
  std::vector<double> b(n);
  double bb = 0.0;
  double ba = 0.0;
  for (int i = 0; i < n; ++i) {
    a[static_cast<std::size_t>(i)] = u(rng);
    b[static_cast<std::size_t>(i)] = u(rng) + 2.5;  // keep b away from 0
    bb += b[static_cast<std::size_t>(i)] * b[static_cast<std::size_t>(i)];
    ba += b[static_cast<std::size_t>(i)] * a[static_cast<std::size_t>(i)];
  }

  Problem p;
  for (int i = 0; i < n; ++i) p.add_variable(-kInfinity, kInfinity, 0.0);
  const ElementFunction* sq_elem = p.own(std::make_unique<SquareElement>());
  FunctionGroup obj;
  for (int i = 0; i < n; ++i) {
    obj.elements.push_back({sq_elem, {i}, 1.0});
    obj.linear.push_back({i, -2.0 * a[static_cast<std::size_t>(i)]});
    obj.constant += a[static_cast<std::size_t>(i)] * a[static_cast<std::size_t>(i)];
  }
  p.set_objective(std::move(obj));
  FunctionGroup c;
  c.constant = -1.0;
  for (int i = 0; i < n; ++i) c.linear.push_back({i, b[static_cast<std::size_t>(i)]});
  p.add_equality(std::move(c));

  const SolveResult r = solve_augmented_lagrangian(p);
  ASSERT_TRUE(r.ok()) << r.status_string();
  const double shift = (1.0 - ba) / bb;
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(r.x[static_cast<std::size_t>(i)],
                a[static_cast<std::size_t>(i)] + shift * b[static_cast<std::size_t>(i)], 1e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AugLagRandomQuadratic, ::testing::Range(1, 11));

// ---------------------------------------------------------------------------
// Element arity bound (stack buffers in every evaluation path)
// ---------------------------------------------------------------------------

/// An element wider than the kMaxElementArity stack buffers; must be rejected
/// before any evaluation path could touch one.
class TooWideElement final : public ElementFunction {
 public:
  int arity() const override { return kMaxElementArity + 1; }
  double eval(const double*, double*, double*) const override { return 0.0; }
};

TEST(Problem, OwnRejectsElementBeyondMaxArity) {
  Problem p;
  try {
    p.own(std::make_unique<TooWideElement>());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("arity 17"), std::string::npos) << what;
    EXPECT_NE(what.find("16"), std::string::npos) << what;
  }
}

TEST(Problem, ValidateNamesOverWideElement) {
  static const TooWideElement wide;  // bypasses own() on purpose
  Problem p;
  std::vector<int> vars;
  for (int i = 0; i < wide.arity(); ++i) vars.push_back(p.add_variable(0.0, 1.0, 0.5));
  p.set_objective({});
  FunctionGroup g;
  g.elements = {{&wide, vars, 1.0}};
  p.add_equality(std::move(g));
  try {
    p.validate();
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("constraint #0"), std::string::npos) << what;
    EXPECT_NE(what.find("element #0"), std::string::npos) << what;
    EXPECT_NE(what.find("arity 17"), std::string::npos) << what;
  }
}

TEST(AugLagModel, ConstructorRejectsElementBeyondMaxArity) {
  static const TooWideElement wide;
  Problem p;
  std::vector<int> vars;
  for (int i = 0; i < wide.arity(); ++i) vars.push_back(p.add_variable(0.0, 1.0, 0.5));
  FunctionGroup obj;
  obj.elements = {{&wide, vars, 1.0}};
  p.set_objective(std::move(obj));
  EXPECT_THROW(nlp::AugLagModel(p, {}, 10.0), std::invalid_argument);
}

}  // namespace
}  // namespace statsize::nlp
