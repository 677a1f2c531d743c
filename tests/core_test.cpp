// Unit tests for the sizing core: the Clark NLP elements, the full-space
// formulation builder (structure, feasible start, derivative consistency),
// and the reduced-space adjoint evaluator.

#include "core/clark_element.h"
#include "core/full_space.h"
#include "core/reduced_space.h"
#include "core/spec.h"

#include "netlist/generators.h"
#include "nlp/derivative_check.h"
#include "ssta/ssta.h"

#include <cmath>
#include <random>

#include <gtest/gtest.h>

namespace statsize::core {
namespace {

using netlist::Circuit;
using netlist::NodeId;
using netlist::NodeKind;
using stat::NormalRV;

TEST(ClarkElementTest, AllLiveMatchesClarkMax) {
  ClarkElement mu_el(ClarkElement::Output::kMu);
  ClarkElement var_el(ClarkElement::Output::kVar);
  ASSERT_EQ(mu_el.arity(), 4);
  const double x[4] = {1.0, 2.0, 0.5, 1.5};  // muA muB vA vB
  const NormalRV want = stat::clark_max({1.0, 0.5}, {2.0, 1.5});
  EXPECT_DOUBLE_EQ(mu_el.eval(x, nullptr, nullptr), want.mu);
  EXPECT_DOUBLE_EQ(var_el.eval(x, nullptr, nullptr), want.var);
}

TEST(ClarkElementTest, GradientMatchesClarkGrad) {
  ClarkElement mu_el(ClarkElement::Output::kMu);
  const double x[4] = {1.0, 2.0, 0.5, 1.5};
  double g[4];
  mu_el.eval(x, g, nullptr);
  stat::ClarkGrad cg;
  stat::clark_max_grad({1.0, 0.5}, {2.0, 1.5}, cg);
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(g[i], cg.dmu[i]) << i;
}

TEST(ClarkElementTest, FixedOperandReducesArity) {
  // Operand A pinned to the constant (0, 0) — a primary-input arrival.
  ClarkElement el(ClarkElement::Output::kMu,
                  {0.0, ClarkElement::kLive, 0.0, ClarkElement::kLive});
  ASSERT_EQ(el.arity(), 2);
  const double x[2] = {1.5, 0.8};  // muB, varB
  const NormalRV want = stat::clark_max({0.0, 0.0}, {1.5, 0.8});
  EXPECT_DOUBLE_EQ(el.eval(x, nullptr, nullptr), want.mu);

  // Gradient slots must map to (muB, varB).
  double g[2];
  el.eval(x, g, nullptr);
  stat::ClarkGrad cg;
  stat::clark_max_grad({0.0, 0.0}, {1.5, 0.8}, cg);
  EXPECT_DOUBLE_EQ(g[0], cg.dmu[1]);
  EXPECT_DOUBLE_EQ(g[1], cg.dmu[3]);
}

TEST(ClarkElementTest, HessianScattersToLiveSlots) {
  ClarkElement el(ClarkElement::Output::kVar,
                  {ClarkElement::kLive, 3.0, ClarkElement::kLive, 0.25});
  ASSERT_EQ(el.arity(), 2);
  const double x[2] = {2.5, 0.6};  // muA, varA
  double g[2];
  double h[3];
  el.eval(x, g, h);

  stat::ClarkGrad cg;
  stat::ClarkHess ch;
  stat::clark_max_full({2.5, 0.6}, {3.0, 0.25}, cg, ch);
  using D4 = autodiff::Dual2<4>;
  EXPECT_DOUBLE_EQ(h[nlp::packed_index(2, 0, 0)], ch.var[D4::hess_index(0, 0)]);
  EXPECT_DOUBLE_EQ(h[nlp::packed_index(2, 0, 1)], ch.var[D4::hess_index(0, 2)]);
  EXPECT_DOUBLE_EQ(h[nlp::packed_index(2, 1, 1)], ch.var[D4::hess_index(2, 2)]);
}

TEST(Spec, Descriptions) {
  EXPECT_EQ(Objective::min_delay().description(), "min mu");
  EXPECT_EQ(Objective::min_delay(3.0).description(), "min mu+3sigma");
  EXPECT_EQ(Objective::min_area().description(), "min sum(S)");
  EXPECT_EQ(Objective::max_sigma().description(), "max sigma");
  EXPECT_EQ(DelayConstraint::at_most(120, 1.0).description(), "mu+1sigma <= 120");
  EXPECT_EQ(DelayConstraint::exactly(6.5).description(), "mu = 6.5");
}

// ---------------------------------------------------------------------------
// Full-space formulation.
// ---------------------------------------------------------------------------

TEST(FullSpace, TreeFormulationShape) {
  const Circuit c = netlist::make_tree_circuit();
  SizingSpec spec;
  spec.objective = Objective::min_delay(3.0);
  const FullSpaceFormulation f = build_full_space(c, spec, 1.0);

  // 7 gates x 5 vars + 3 live max pairs x 2 aux = 41 (sigma_Tmax is an
  // expression, not a variable). Gates A,B,D,E take the max of two constant
  // PI arrivals — folded away — so only C, F, G contribute live max pairs.
  EXPECT_EQ(f.num_max_pairs, 3);
  EXPECT_EQ(f.problem->num_vars(), 7 * 5 + 3 * 2);
  // Per gate: delay + sigma-model + 2 arrival constraints = 28; per max pair
  // 2 constraints = 6.
  EXPECT_EQ(f.problem->num_constraints(), 28 + 6);
}

TEST(FullSpace, StartIsFeasible) {
  // The builder propagates start values, so every equality holds at start.
  for (double s0 : {1.0, 2.0, 3.0}) {
    const Circuit c = netlist::make_tree_circuit();
    SizingSpec spec;
    spec.objective = Objective::min_delay(1.0);
    const FullSpaceFormulation f = build_full_space(c, spec, s0);
    EXPECT_LT(f.problem->max_constraint_violation(f.problem->start()), 1e-10) << s0;
  }
}

TEST(FullSpace, StartFeasibleOnIrregularCircuit) {
  const Circuit c = netlist::make_mcnc_like("apex2");
  SizingSpec spec;
  spec.objective = Objective::min_delay(3.0);
  const FullSpaceFormulation f = build_full_space(c, spec, 2.0);
  EXPECT_LT(f.problem->max_constraint_violation(f.problem->start()), 1e-9);
}

TEST(FullSpace, StartMatchesSsta) {
  // mu_Tmax / var_Tmax start values must equal the SSTA circuit delay.
  const Circuit c = netlist::make_mcnc_like("apex2");
  SizingSpec spec;
  spec.objective = Objective::min_delay(0.0);
  const FullSpaceFormulation f = build_full_space(c, spec, 1.0);
  const ssta::DelayCalculator calc(c, spec.sigma_model);
  const std::vector<double> speed(static_cast<std::size_t>(c.num_nodes()), 1.0);
  const NormalRV want = ssta::run_ssta(calc, speed).circuit_delay;
  const std::vector<double>& x0 = f.problem->start();
  EXPECT_NEAR(x0[static_cast<std::size_t>(f.mu_tmax_var)], want.mu, 1e-9);
  EXPECT_NEAR(x0[static_cast<std::size_t>(f.var_tmax_var)], want.var, 1e-9);
}

TEST(FullSpace, AnalyticDerivativesPassFiniteDifferenceCheck) {
  // Random interior point (perturbed from the feasible start) — gradients and
  // element Hessians of the whole formulation must agree with central FD.
  const Circuit c = netlist::make_tree_circuit();
  SizingSpec spec;
  spec.objective = Objective::min_delay(3.0);
  spec.delay_constraint = DelayConstraint::at_most(9.0, 1.0);
  const FullSpaceFormulation f = build_full_space(c, spec, 1.5);

  std::vector<double> x = f.problem->start();
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> u(-0.05, 0.05);
  for (double& xi : x) xi = std::max(1e-3, xi * (1.0 + u(rng)));

  const nlp::DerivativeReport rep = nlp::check_problem_derivatives(*f.problem, x);
  EXPECT_TRUE(rep.ok(5e-4)) << "grad err " << rep.max_gradient_error << ", hess err "
                            << rep.max_hessian_error;
}

TEST(FullSpace, SpeedsFromExtractsGateVariables) {
  const Circuit c = netlist::make_tree_circuit();
  SizingSpec spec;
  const FullSpaceFormulation f = build_full_space(c, spec, 1.7);
  const std::vector<double> speeds = f.speeds_from(f.problem->start());
  for (NodeId id : c.topo_order()) {
    if (c.node(id).kind == NodeKind::kGate) {
      EXPECT_DOUBLE_EQ(speeds[static_cast<std::size_t>(id)], 1.7);
    }
  }
}

TEST(FullSpace, EqualityDelayConstraintHasNoSlack) {
  const Circuit c = netlist::make_tree_circuit();
  SizingSpec spec;
  spec.objective = Objective::min_area();
  spec.delay_constraint = DelayConstraint::exactly(8.0);
  const FullSpaceFormulation feq = build_full_space(c, spec, 2.0);
  spec.delay_constraint = DelayConstraint::at_most(8.0);
  const FullSpaceFormulation fle = build_full_space(c, spec, 2.0);
  EXPECT_EQ(fle.problem->num_vars(), feq.problem->num_vars() + 1);  // the slack
}

// ---------------------------------------------------------------------------
// N-ary max element (future-work mode).
// ---------------------------------------------------------------------------

TEST(NaryClarkElementTest, ValueMatchesPairwiseFold) {
  const NormalRV ops[3] = {{1.0, 0.4}, {1.6, 0.2}, {0.8, 0.9}};
  const NormalRV want = stat::clark_max(stat::clark_max(ops[0], ops[1]), ops[2]);
  NaryClarkElement mu_el(ClarkElement::Output::kMu, 3, false, {});
  NaryClarkElement var_el(ClarkElement::Output::kVar, 3, false, {});
  const double x[6] = {1.0, 1.6, 0.8, 0.4, 0.2, 0.9};  // mus then vars
  EXPECT_NEAR(mu_el.eval(x, nullptr, nullptr), want.mu, 1e-12);
  EXPECT_NEAR(var_el.eval(x, nullptr, nullptr), want.var, 1e-12);
}

TEST(NaryClarkElementTest, ConstInitSeedsFold) {
  const NormalRV init{0.9, 0.0};
  const NormalRV op{1.2, 0.3};
  const NormalRV want = stat::clark_max(init, op);
  NaryClarkElement el(ClarkElement::Output::kMu, 1, true, init);
  const double x[2] = {1.2, 0.3};
  EXPECT_NEAR(el.eval(x, nullptr, nullptr), want.mu, 1e-12);
}

TEST(NaryClarkElementTest, GradientAndHessianMatchFiniteDifferences) {
  NaryClarkElement el(ClarkElement::Output::kVar, 3, true, {0.5, 0.1});
  double x[6] = {1.0, 1.6, 0.8, 0.4, 0.2, 0.9};
  double g[6];
  double h[21];
  const double f0 = el.eval(x, g, h);
  EXPECT_TRUE(std::isfinite(f0));
  for (int i = 0; i < 6; ++i) {
    const double hstep = 1e-6;
    const double saved = x[i];
    x[i] = saved + hstep;
    double gp[6];
    const double fp = el.eval(x, gp, nullptr);
    x[i] = saved - hstep;
    double gm[6];
    const double fm = el.eval(x, gm, nullptr);
    x[i] = saved;
    EXPECT_NEAR(g[i], (fp - fm) / (2 * hstep), 1e-5) << i;
    for (int j = 0; j < 6; ++j) {
      EXPECT_NEAR(h[nlp::packed_index(6, i, j)], (gp[j] - gm[j]) / (2 * hstep), 1e-4)
          << i << "," << j;
    }
  }
}

TEST(NaryClarkElementTest, DominantOperandPassesThroughBothPaths) {
  // Past the dominance exit (|alpha| >= 9) the Dual2 fold returns the winner
  // itself, as the value path's clark_max does: the same bits, gradient 1 on
  // the winner's slots, and a zero Hessian. In the second case the first two
  // operands blend, then the third dominates their accumulator.
  const double cases[2][6] = {{10.0, 1.0, 2.0, 0.04, 0.09, 0.01},
                              {1.0, 1.3, 20.0, 0.4, 0.2, 0.3}};
  const int winner[2] = {0, 2};
  for (int c = 0; c < 2; ++c) {
    const double* x = cases[c];
    const int w = winner[c];
    for (const ClarkElement::Output out : {ClarkElement::Output::kMu, ClarkElement::Output::kVar}) {
      const NaryClarkElement el(out, 3, false, {});
      const int slot = out == ClarkElement::Output::kMu ? w : 3 + w;
      double g[6];
      double h[21];
      const double value = el.eval(x, nullptr, nullptr);
      EXPECT_EQ(value, x[slot]) << "case " << c;
      EXPECT_EQ(el.eval(x, g, h), value) << "case " << c;
      for (int i = 0; i < 6; ++i) EXPECT_EQ(g[i], i == slot ? 1.0 : 0.0) << "case " << c;
      for (double v : h) EXPECT_EQ(v, 0.0) << "case " << c;
    }
  }
}

TEST(NaryClarkElementTest, RejectsTooManyOperands) {
  EXPECT_THROW(NaryClarkElement(ClarkElement::Output::kMu, 5, false, {}),
               std::invalid_argument);
}

TEST(FullSpaceNary, FewerVariablesThanPairwise) {
  // Multi-input cells make the difference visible.
  netlist::RandomDagParams p;
  p.num_gates = 60;
  p.seed = 21;
  const Circuit c = netlist::make_random_dag(p);
  SizingSpec spec;
  spec.objective = Objective::min_delay(3.0);
  const FullSpaceFormulation pairwise = build_full_space(c, spec, 1.0);
  spec.nary_fanin_max = true;
  const FullSpaceFormulation nary = build_full_space(c, spec, 1.0);
  EXPECT_LT(nary.problem->num_vars(), pairwise.problem->num_vars());
  EXPECT_LT(nary.problem->num_constraints(), pairwise.problem->num_constraints());
}

TEST(FullSpaceNary, StartStillFeasibleAndDerivativesCorrect) {
  netlist::RandomDagParams p;
  p.num_gates = 40;
  p.seed = 22;
  const Circuit c = netlist::make_random_dag(p);
  SizingSpec spec;
  spec.objective = Objective::min_delay(1.0);
  spec.nary_fanin_max = true;
  const FullSpaceFormulation f = build_full_space(c, spec, 1.5);
  EXPECT_LT(f.problem->max_constraint_violation(f.problem->start()), 1e-9);

  std::vector<double> x = f.problem->start();
  std::mt19937 rng(4);
  std::uniform_real_distribution<double> u(-0.03, 0.03);
  for (double& xi : x) xi = std::max(1e-3, xi * (1.0 + u(rng)));
  const nlp::DerivativeReport rep = nlp::check_problem_derivatives(*f.problem, x);
  EXPECT_TRUE(rep.ok(5e-4)) << rep.max_gradient_error << " " << rep.max_hessian_error;
}

// ---------------------------------------------------------------------------
// Reduced-space adjoint evaluator.
// ---------------------------------------------------------------------------

struct AdjointCase {
  const char* kind;
  int size;
  double sigma_weight;
};

class AdjointGradient : public ::testing::TestWithParam<AdjointCase> {};

TEST_P(AdjointGradient, MatchesFiniteDifferences) {
  const AdjointCase& p = GetParam();
  Circuit c = [&] {
    if (std::string(p.kind) == "tree") return netlist::make_tree_circuit();
    if (std::string(p.kind) == "chain") return netlist::make_chain(p.size);
    netlist::RandomDagParams rp;
    rp.num_gates = p.size;
    rp.seed = 17;
    return netlist::make_random_dag(rp);
  }();
  const ReducedEvaluator eval(c, {0.25, 0.0});

  std::mt19937 rng(23);
  std::uniform_real_distribution<double> u(1.1, 2.9);
  std::vector<double> speed(static_cast<std::size_t>(c.num_nodes()), 1.0);
  for (NodeId id : c.topo_order()) {
    if (c.node(id).kind == NodeKind::kGate) speed[static_cast<std::size_t>(id)] = u(rng);
  }

  std::vector<double> grad;
  eval.eval_metric(speed, p.sigma_weight, &grad);

  int checked = 0;
  for (NodeId id : c.topo_order()) {
    if (c.node(id).kind != NodeKind::kGate) continue;
    if (++checked % 3 != 0 && c.num_gates() > 10) continue;  // sample big circuits
    const std::size_t i = static_cast<std::size_t>(id);
    const double h = 1e-6;
    const double s0 = speed[i];
    speed[i] = s0 + h;
    const double fp = eval.eval_metric(speed, p.sigma_weight, nullptr);
    speed[i] = s0 - h;
    const double fm = eval.eval_metric(speed, p.sigma_weight, nullptr);
    speed[i] = s0;
    const double fd = (fp - fm) / (2.0 * h);
    ASSERT_NEAR(grad[i], fd, 1e-5 * (1.0 + std::abs(fd))) << "node " << id;
  }
}

INSTANTIATE_TEST_SUITE_P(Circuits, AdjointGradient,
                         ::testing::Values(AdjointCase{"tree", 0, 0.0},
                                           AdjointCase{"tree", 0, 3.0},
                                           AdjointCase{"chain", 6, 1.0},
                                           AdjointCase{"dag", 40, 0.0},
                                           AdjointCase{"dag", 40, 3.0},
                                           AdjointCase{"dag", 120, 1.0}));

TEST(ReducedEvaluatorTest, EvalMatchesSsta) {
  const Circuit c = netlist::make_mcnc_like("apex2");
  const ReducedEvaluator eval(c, {0.25, 0.0});
  const std::vector<double> speed(static_cast<std::size_t>(c.num_nodes()), 1.5);
  const ssta::DelayCalculator calc(c, {0.25, 0.0});
  const NormalRV via_ssta = ssta::run_ssta(calc, speed).circuit_delay;
  const NormalRV via_eval = eval.eval(speed);
  EXPECT_DOUBLE_EQ(via_eval.mu, via_ssta.mu);
  EXPECT_DOUBLE_EQ(via_eval.var, via_ssta.var);
}

TEST(ReducedEvaluatorTest, GradSeedsAreLinear) {
  // grad(a*mu + b*var) = a*grad(mu) + b*grad(var).
  const Circuit c = netlist::make_tree_circuit();
  const ReducedEvaluator eval(c, {0.25, 0.0});
  std::vector<double> speed(static_cast<std::size_t>(c.num_nodes()), 2.0);
  std::vector<double> g_mu;
  std::vector<double> g_var;
  std::vector<double> g_mix;
  eval.eval_with_grad(speed, 1.0, 0.0, g_mu);
  eval.eval_with_grad(speed, 0.0, 1.0, g_var);
  eval.eval_with_grad(speed, 2.0, -0.5, g_mix);
  for (std::size_t i = 0; i < g_mix.size(); ++i) {
    EXPECT_NEAR(g_mix[i], 2.0 * g_mu[i] - 0.5 * g_var[i], 1e-12);
  }
}

TEST(ReducedEvaluatorTest, GradientIsBitwiseStableAcrossCallsAndEvaluators) {
  // An evaluator reused across points keeps a forward tape and adjoint
  // scratch between calls; none of it may leak into a later answer. The
  // gradient at x after a detour through another point equals the first one
  // and a fresh evaluator's, bit for bit, on apex1 (982 gates).
  const Circuit c = netlist::make_mcnc_like("apex1");
  const ReducedEvaluator reused(c, {0.25, 0.02});
  std::vector<double> x(static_cast<std::size_t>(c.num_nodes()));
  std::vector<double> y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 1.0 + 0.13 * static_cast<double>(i % 11);
    y[i] = 2.5 - 0.07 * static_cast<double>(i % 13);
  }

  std::vector<double> g_first;
  std::vector<double> g_detour;
  std::vector<double> g_again;
  std::vector<double> g_fresh;
  const NormalRV t_first = reused.eval_with_grad(x, 1.0, 0.5, g_first);
  reused.eval_with_grad(y, 0.0, 1.0, g_detour);
  const NormalRV t_again = reused.eval_with_grad(x, 1.0, 0.5, g_again);
  const NormalRV t_fresh = ReducedEvaluator(c, {0.25, 0.02}).eval_with_grad(x, 1.0, 0.5, g_fresh);

  EXPECT_EQ(t_again.mu, t_first.mu);
  EXPECT_EQ(t_again.var, t_first.var);
  EXPECT_EQ(t_fresh.mu, t_first.mu);
  EXPECT_EQ(t_fresh.var, t_first.var);
  EXPECT_EQ(g_again, g_first);
  EXPECT_EQ(g_fresh, g_first);
  EXPECT_NE(g_detour, g_first);
}

TEST(ReducedEvaluatorTest, TapedForwardThenAdjointEqualsEvalWithGrad) {
  // The sizer's split evaluation: many taped_forward trials, then one
  // adjoint at the accepted point. The adjoint reads the last tape, so after
  // a detour through other trial points it must still give exactly what one
  // combined call on a fresh evaluator gives.
  const Circuit c = netlist::make_mcnc_like("apex2");
  std::vector<double> x(static_cast<std::size_t>(c.num_nodes()));
  std::vector<double> trial(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 1.0 + 0.09 * static_cast<double>(i % 17);
    trial[i] = 3.0 - 0.05 * static_cast<double>(i % 19);
  }
  std::vector<double> want;
  const NormalRV t_want = ReducedEvaluator(c, {0.25, 0.02}).eval_with_grad(x, 1.0, 0.3, want);

  const ReducedEvaluator split(c, {0.25, 0.02});
  split.taped_forward(trial);
  const NormalRV t = split.taped_forward(x);
  std::vector<double> grad;
  split.adjoint(x, 1.0, 0.3, grad);
  EXPECT_EQ(t.mu, t_want.mu);
  EXPECT_EQ(t.var, t_want.var);
  EXPECT_EQ(grad, want);

  // A second adjoint over the same tape with other seeds needs no new sweep.
  std::vector<double> g_var;
  std::vector<double> want_var;
  split.adjoint(x, 0.0, 1.0, g_var);
  ReducedEvaluator(c, {0.25, 0.02}).eval_with_grad(x, 0.0, 1.0, want_var);
  EXPECT_EQ(g_var, want_var);
}

TEST(ReducedEvaluatorTest, AdjointRefusesAMissingOrStaleTape) {
  const Circuit c = netlist::make_tree_circuit();
  const ReducedEvaluator eval(c, {0.25, 0.0});
  std::vector<double> x(static_cast<std::size_t>(c.num_nodes()), 1.5);
  std::vector<double> y(x.size(), 2.0);
  std::vector<double> grad;
  EXPECT_THROW(eval.adjoint(x, 1.0, 0.0, grad), std::logic_error);  // never taped
  eval.taped_forward(y);
  EXPECT_THROW(eval.adjoint(x, 1.0, 0.0, grad), std::logic_error);  // tape is at y
  eval.taped_forward(x);
  EXPECT_NO_THROW(eval.adjoint(x, 1.0, 0.0, grad));
}

TEST(ReducedEvaluatorTest, SpeedingUpReducesDelayMetric) {
  // d(mu)/dS summed over all gates must be negative at S=1 (sizing helps).
  const Circuit c = netlist::make_mcnc_like("apex2");
  const ReducedEvaluator eval(c, {0.25, 0.0});
  std::vector<double> speed(static_cast<std::size_t>(c.num_nodes()), 1.0);
  std::vector<double> grad;
  eval.eval_metric(speed, 0.0, &grad);
  double total = 0.0;
  for (double g : grad) total += g;
  EXPECT_LT(total, 0.0);
}

TEST(ReducedEvaluatorTest, RejectsCircuitWithNoPrimaryOutputs) {
  // Without outputs, Tmax (and the step-slice arithmetic of the adjoint) is
  // undefined. Such a circuit cannot be finalized, and a Circuit passes as
  // its view, which does not exist before finalize(): the evaluator is
  // refused at construction.
  const netlist::CellLibrary& lib = netlist::CellLibrary::standard();
  Circuit c(lib);
  const NodeId a = c.add_input("a");
  const NodeId g0 = c.add_gate(lib.find("INV"), {a}, "g0");
  (void)g0;  // never marked as an output
  try {
    const ReducedEvaluator eval(c, {0.25, 0.0});
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "circuit must be finalized first");
  }
  EXPECT_THROW(c.finalize(), std::runtime_error);  // CIR004: no primary outputs
}

TEST(ReducedEvaluatorTest, EvalMetricEqualsProbeSeededAdjoint) {
  // eval_metric seeds the adjoint from the forward sweep's own Tmax instead
  // of running a separate sigma probe. The two must be *equal* (not merely
  // close): clark_max and clark_max_grad share their moment arithmetic, so
  // the in-sweep Tmax is the same double the probe would have produced.
  const Circuit c = netlist::make_mcnc_like("apex2");
  const ReducedEvaluator eval(c, {0.25, 0.0});
  std::vector<double> speed(static_cast<std::size_t>(c.num_nodes()), 1.4);
  const double k = 3.0;

  std::vector<double> grad;
  const double metric = eval.eval_metric(speed, k, &grad);

  const NormalRV probe = eval.eval(speed);
  const double sigma = probe.sigma();
  const double seed_var = sigma > 1e-12 ? k / (2.0 * sigma) : 0.0;
  std::vector<double> want_grad;
  const NormalRV t = eval.eval_with_grad(speed, 1.0, seed_var, want_grad);

  EXPECT_EQ(metric, t.mu + k * t.sigma());
  EXPECT_EQ(grad, want_grad);
}

}  // namespace
}  // namespace statsize::core
