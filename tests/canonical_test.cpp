// Tests for the correlation-aware canonical-form SSTA (the paper's
// future-work extension): the form algebra, the correlated Clark max, and
// whole-circuit accuracy against Monte Carlo — where it must beat the
// independence-assuming engine on reconvergent circuits.

#include "ssta/canonical.h"

#include "netlist/generators.h"
#include "ssta/monte_carlo.h"
#include "ssta/ssta.h"
#include "stat/clark.h"

#include <cmath>
#include <random>

#include <gtest/gtest.h>

namespace statsize::ssta {
namespace {

using netlist::Circuit;
using netlist::NodeId;
using stat::NormalRV;

TEST(CorrelatedClark, ZeroCovarianceMatchesIndependent) {
  const NormalRV a{2.0, 1.5};
  const NormalRV b{2.5, 0.7};
  const NormalRV ind = stat::clark_max(a, b);
  const NormalRV cor = stat::clark_max_correlated(a, b, 0.0);
  EXPECT_NEAR(cor.mu, ind.mu, 1e-14);
  EXPECT_NEAR(cor.var, ind.var, 1e-14);
}

TEST(CorrelatedClark, PerfectCorrelationIsDeterministicChoice) {
  // A and B = A + 1 (same variance, cov = var): max = B surely.
  const NormalRV a{2.0, 1.0};
  const NormalRV b{3.0, 1.0};
  double tightness = -1.0;
  const NormalRV c = stat::clark_max_correlated(a, b, 1.0, &tightness);
  EXPECT_DOUBLE_EQ(c.mu, 3.0);
  EXPECT_DOUBLE_EQ(c.var, 1.0);
  EXPECT_DOUBLE_EQ(tightness, 0.0);
}

class CorrelatedClarkVsMc : public ::testing::TestWithParam<double> {};

TEST_P(CorrelatedClarkVsMc, MomentsMatchSampling) {
  const double rho = GetParam();
  const NormalRV a{1.0, 1.0};
  const NormalRV b{1.4, 2.25};
  const double cov = rho * std::sqrt(a.var * b.var);
  const NormalRV c = stat::clark_max_correlated(a, b, cov);

  // Sample (A, B) jointly normal via Cholesky.
  std::mt19937_64 rng(77);
  std::normal_distribution<double> unit(0.0, 1.0);
  const double sa = std::sqrt(a.var);
  const double sb = std::sqrt(b.var);
  const int n = 400000;
  double sum = 0.0;
  double sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double z1 = unit(rng);
    const double z2 = unit(rng);
    const double xa = a.mu + sa * z1;
    const double xb = b.mu + sb * (rho * z1 + std::sqrt(1.0 - rho * rho) * z2);
    const double m = std::max(xa, xb);
    sum += m;
    sum2 += m * m;
  }
  const double mc_mu = sum / n;
  const double mc_var = sum2 / n - mc_mu * mc_mu;
  EXPECT_NEAR(c.mu, mc_mu, 0.01) << "rho=" << rho;
  EXPECT_NEAR(c.var, mc_var, 0.02) << "rho=" << rho;
}

INSTANTIATE_TEST_SUITE_P(Rhos, CorrelatedClarkVsMc,
                         ::testing::Values(-0.8, -0.3, 0.0, 0.3, 0.7, 0.95));

TEST(CanonicalFormTest, VarianceAndCovarianceAlgebra) {
  const CanonicalForm a = CanonicalForm::variable(1.0, 3, 0.5);
  const CanonicalForm b = CanonicalForm::variable(2.0, 3, 0.2);
  const CanonicalForm c = CanonicalForm::variable(0.5, 7, 1.0);

  EXPECT_DOUBLE_EQ(a.variance(), 0.25);
  EXPECT_DOUBLE_EQ(CanonicalForm::covariance(a, b), 0.1);   // shared source 3
  EXPECT_DOUBLE_EQ(CanonicalForm::covariance(a, c), 0.0);   // disjoint

  const CanonicalForm ab = CanonicalForm::add(a, b);
  EXPECT_DOUBLE_EQ(ab.mean(), 3.0);
  EXPECT_DOUBLE_EQ(ab.variance(), 0.49);  // (0.5 + 0.2)^2, fully correlated

  const CanonicalForm ac = CanonicalForm::add(a, c);
  EXPECT_DOUBLE_EQ(ac.variance(), 1.25);  // independent adds in quadrature
  EXPECT_EQ(ac.terms().size(), 2u);
}

TEST(CanonicalFormTest, AddCancellingCoefficientDropsTerm) {
  const CanonicalForm a = CanonicalForm::variable(0.0, 1, 0.7);
  const CanonicalForm b = CanonicalForm::variable(0.0, 1, -0.7);
  const CanonicalForm sum = CanonicalForm::add(a, b);
  EXPECT_TRUE(sum.terms().empty());
  EXPECT_DOUBLE_EQ(sum.variance(), 0.0);
}

TEST(CanonicalFormTest, MaxMatchesClarkMomentsForIndependentOperands) {
  int next = 100;
  const CanonicalForm a = CanonicalForm::variable(1.0, 1, 1.0);
  const CanonicalForm b = CanonicalForm::variable(1.5, 2, 0.8);
  const CanonicalForm m = CanonicalForm::max(a, b, next);
  const NormalRV want = stat::clark_max(a.to_normal(), b.to_normal());
  EXPECT_NEAR(m.mean(), want.mu, 1e-12);
  EXPECT_NEAR(m.variance(), want.var, 1e-12);
  EXPECT_GT(next, 100);  // residual allocated
}

TEST(CanonicalFormTest, MaxOfIdenticalFormsIsIdentity) {
  // max(T, T) = T exactly; the correlated max must recognize theta = 0.
  int next = 100;
  CanonicalForm t = CanonicalForm::variable(2.0, 5, 0.6);
  t = CanonicalForm::add(t, CanonicalForm::variable(1.0, 6, 0.3));
  const CanonicalForm m = CanonicalForm::max(t, t, next);
  EXPECT_DOUBLE_EQ(m.mean(), t.mean());
  EXPECT_DOUBLE_EQ(m.variance(), t.variance());
  EXPECT_EQ(next, 100);  // no residual needed
}

TEST(Canonical, DominatedMaxIsSymmetric) {
  // theta = 1 (independent sources, sigmas 0.6 and 0.8), so alpha is the
  // mean gap. Once one operand dominates, both operand orders must return
  // that operand exactly; no dead term of the loser may survive.
  for (double alpha : {-20.0, -10.0, 10.0, 20.0}) {
    const CanonicalForm a = CanonicalForm::variable(alpha, 0, 0.6);
    const CanonicalForm b = CanonicalForm::variable(0.0, 1, 0.8);
    int next_ab = 100;
    int next_ba = 100;
    const CanonicalForm ab = CanonicalForm::max(a, b, next_ab);
    const CanonicalForm ba = CanonicalForm::max(b, a, next_ba);
    EXPECT_EQ(ab.terms(), ba.terms()) << "alpha " << alpha;
    EXPECT_EQ(ab.terms().size(), 1u) << "alpha " << alpha;
    EXPECT_EQ(ab.mean(), ba.mean()) << "alpha " << alpha;
    EXPECT_EQ(ab.variance(), ba.variance()) << "alpha " << alpha;
    EXPECT_EQ(next_ab, next_ba) << "alpha " << alpha;
  }
}

TEST(CanonicalSsta, MatchesIndependentSstaOnTree) {
  // No reconvergence -> the independence assumption is exact and both
  // engines agree.
  const Circuit c = netlist::make_tree_circuit();
  const DelayCalculator calc(c, {0.25, 0.0});
  const std::vector<double> speed(static_cast<std::size_t>(c.num_nodes()), 1.0);
  const auto delays = calc.all_delays(speed);
  const NormalRV ind = run_ssta(c, delays).circuit_delay;
  const NormalRV can = run_canonical_ssta(c, delays).circuit_delay_normal();
  EXPECT_NEAR(can.mu, ind.mu, 1e-9);
  EXPECT_NEAR(can.var, ind.var, 1e-9);
}

TEST(CanonicalSsta, SharedPathVarianceIsExact) {
  // A chain feeding two parallel branches that reconverge in a max: the
  // shared chain's variance must appear ONCE. Construct: pi -> g0 -> {g1,g2}
  // -> g3(max). Independence SSTA double-counts g0's sigma inside the max;
  // the canonical engine must not.
  const netlist::CellLibrary& lib = netlist::CellLibrary::standard();
  netlist::Circuit c(lib);
  const NodeId pi = c.add_input("a");
  const NodeId g0 = c.add_gate(lib.find("INV"), {pi}, "g0");
  const NodeId g1 = c.add_gate(lib.find("INV"), {g0}, "g1");
  const NodeId g2 = c.add_gate(lib.find("INV"), {g0}, "g2");
  const NodeId g3 = c.add_gate(lib.find("NAND2"), {g1, g2}, "g3");
  c.mark_output(g3);
  c.finalize();

  const DelayCalculator calc(c, {0.25, 0.0});
  const std::vector<double> speed(static_cast<std::size_t>(c.num_nodes()), 1.0);
  const auto delays = calc.all_delays(speed);

  const NormalRV can = run_canonical_ssta(c, delays).circuit_delay_normal();
  MonteCarloOptions opt;
  opt.num_samples = 200000;
  opt.truncate_negative_delays = false;
  const MonteCarloResult mc = run_monte_carlo(c, delays, opt);
  EXPECT_NEAR(can.mu, mc.mean, 0.01 * mc.mean);
  EXPECT_NEAR(can.sigma(), mc.stddev, 0.03 * mc.stddev);

  // And the independence engine really is wrong here (sanity of the test).
  const NormalRV ind = run_ssta(c, delays).circuit_delay;
  EXPECT_GT(std::abs(ind.sigma() - mc.stddev), std::abs(can.sigma() - mc.stddev));
}

struct DagCase {
  int gates;
  int inputs;
  unsigned seed;
};

class CanonicalVsIndependent : public ::testing::TestWithParam<DagCase> {};

TEST_P(CanonicalVsIndependent, CanonicalSigmaIsFarCloserToMonteCarlo) {
  const DagCase& p = GetParam();
  netlist::RandomDagParams rp;
  rp.num_gates = p.gates;
  rp.num_inputs = p.inputs;
  rp.seed = p.seed;
  const Circuit c = netlist::make_random_dag(rp);
  const DelayCalculator calc(c, {0.25, 0.0});
  const std::vector<double> speed(static_cast<std::size_t>(c.num_nodes()), 1.0);
  const auto delays = calc.all_delays(speed);

  const NormalRV ind = run_ssta(c, delays).circuit_delay;
  const NormalRV can = run_canonical_ssta(c, delays).circuit_delay_normal();
  MonteCarloOptions opt;
  opt.num_samples = 30000;
  opt.seed = 17;
  opt.truncate_negative_delays = false;
  const MonteCarloResult mc = run_monte_carlo(c, delays, opt);

  const double err_ind_sigma = std::abs(ind.sigma() - mc.stddev);
  const double err_can_sigma = std::abs(can.sigma() - mc.stddev);
  EXPECT_LT(err_can_sigma, 0.5 * err_ind_sigma)
      << "ind sigma " << ind.sigma() << " can sigma " << can.sigma() << " mc " << mc.stddev;
  EXPECT_NEAR(can.mu, mc.mean, 0.02 * mc.mean);
  EXPECT_NEAR(can.sigma(), mc.stddev, 0.25 * mc.stddev);
}

INSTANTIATE_TEST_SUITE_P(Dags, CanonicalVsIndependent,
                         ::testing::Values(DagCase{60, 16, 3}, DagCase{150, 16, 4},
                                           DagCase{300, 24, 5}));

}  // namespace
}  // namespace statsize::ssta
