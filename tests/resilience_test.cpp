// Resilience-layer tests (DESIGN.md §9): deadlines and cooperative
// cancellation, deterministic fault injection, best-iterate checkpointing,
// graceful degradation, and multistart retry. These prove the recovery
// contract rather than hoping for it: an injected NaN must surface as
// kNumericalBreakdown with a checkpoint (not a throw), an injected deadline
// must surface as kTimeLimit with a valid iterate, and an armed-but-unfired
// fault must leave results bit-identical to an unarmed run.

#include "core/sizer.h"
#include "netlist/generators.h"
#include "nlp/auglag.h"
#include "nlp/breakdown.h"
#include "nlp/problem.h"
#include "runtime/cancel.h"
#include "runtime/fault.h"
#include "runtime/runtime.h"

#include <cmath>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace statsize {
namespace {

namespace fault = runtime::fault;

using core::Method;
using core::Objective;
using core::Sizer;
using core::SizerOptions;
using core::SizingResult;
using core::SizingSpec;
using netlist::Circuit;

struct ThreadGuard {
  int saved = runtime::threads();
  ~ThreadGuard() { runtime::set_threads(saved); }
};

/// Exception-safe disarm: a failed ASSERT must not leave a fault armed for
/// the next test.
struct DisarmGuard {
  ~DisarmGuard() { fault::disarm(); }
};

void expect_speeds_in_bounds(const SizingResult& r, double max_speed) {
  for (double s : r.speed) {
    EXPECT_TRUE(std::isfinite(s));
    EXPECT_GE(s, 1.0 - 1e-12);
    EXPECT_LE(s, max_speed + 1e-12);
  }
}

// ---------------------------------------------------------------------------
// Deadline / token / scope primitives
// ---------------------------------------------------------------------------

TEST(DeadlineBasics, NeverIsUnlimited) {
  const runtime::Deadline d = runtime::Deadline::never();
  EXPECT_TRUE(d.unlimited());
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.remaining_seconds(), std::numeric_limits<double>::infinity());
}

TEST(DeadlineBasics, ZeroOrNegativeBudgetIsAlreadyExpired) {
  EXPECT_TRUE(runtime::Deadline::after_seconds(0.0).expired());
  EXPECT_TRUE(runtime::Deadline::after_seconds(-5.0).expired());
  EXPECT_LE(runtime::Deadline::after_seconds(-5.0).remaining_seconds(), 0.0);
}

TEST(DeadlineBasics, FutureBudgetIsNotExpired) {
  const runtime::Deadline d = runtime::Deadline::after_seconds(1000.0);
  EXPECT_FALSE(d.unlimited());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_seconds(), 990.0);
  EXPECT_LE(d.remaining_seconds(), 1000.0);
}

TEST(CancellationTokenTest, StickyAndResettable) {
  runtime::CancellationToken tok;
  EXPECT_FALSE(tok.cancel_requested());
  tok.request_cancel();
  EXPECT_TRUE(tok.cancel_requested());
  tok.request_cancel();  // idempotent
  EXPECT_TRUE(tok.cancel_requested());
  tok.reset();
  EXPECT_FALSE(tok.cancel_requested());
}

TEST(CancelScopeTest, NoScopePollIsANoOp) {
  EXPECT_FALSE(runtime::cancel_requested());
  EXPECT_NO_THROW(runtime::poll_cancel());
}

TEST(CancelScopeTest, TokenCancelThrowsWithTokenReason) {
  runtime::CancellationToken tok;
  tok.request_cancel();
  {
    runtime::CancelScope scope(&tok, runtime::Deadline::never());
    EXPECT_TRUE(runtime::cancel_requested());
    try {
      runtime::poll_cancel();
      FAIL() << "poll_cancel() did not throw";
    } catch (const runtime::OperationCancelled& e) {
      EXPECT_EQ(e.reason(), runtime::CancelReason::kToken);
    }
  }
  EXPECT_FALSE(runtime::cancel_requested());  // scope uninstalled
}

TEST(CancelScopeTest, ExpiredDeadlineThrowsWithDeadlineReason) {
  runtime::CancelScope scope(nullptr, runtime::Deadline::after_seconds(0.0));
  try {
    runtime::poll_cancel();
    FAIL() << "poll_cancel() did not throw";
  } catch (const runtime::OperationCancelled& e) {
    EXPECT_EQ(e.reason(), runtime::CancelReason::kDeadline);
  }
}

TEST(CancelScopeTest, NestedScopeStillSeesOuterCancellation) {
  runtime::CancellationToken tok;
  tok.request_cancel();
  runtime::CancelScope outer(&tok, runtime::Deadline::never());
  runtime::CancelScope inner(nullptr, runtime::Deadline::never());
  EXPECT_TRUE(runtime::cancel_requested());
  EXPECT_THROW(runtime::poll_cancel(), runtime::OperationCancelled);
}

TEST(CancelScopeTest, ParallelForUnwindsAndPoolSurvives) {
  ThreadGuard guard;
  runtime::set_threads(4);
  const std::size_t n = 1 << 16;
  std::vector<double> out(n, 0.0);
  auto fill = [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) out[i] = static_cast<double>(i);
  };
  {
    runtime::CancellationToken tok;
    tok.request_cancel();
    runtime::CancelScope scope(&tok, runtime::Deadline::never());
    EXPECT_THROW(runtime::parallel_for(n, 64, fill), runtime::OperationCancelled);
  }
  // The pool must come back clean: same sweep, no scope, completes fully.
  std::fill(out.begin(), out.end(), 0.0);
  runtime::parallel_for(n, 64, fill);
  const double sum = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_EQ(sum, static_cast<double>(n) * static_cast<double>(n - 1) / 2.0);
}

// ---------------------------------------------------------------------------
// Fault injector
// ---------------------------------------------------------------------------

TEST(FaultInjection, FiresExactlyOnceAtConfiguredHit) {
  DisarmGuard cleanup;
  fault::arm("tron.iter:3");
  int fired_at = 0;
  for (int call = 1; call <= 10; ++call) {
    if (fault::hit(fault::kTronIter)) {
      EXPECT_EQ(fired_at, 0) << "site fired more than once";
      fired_at = call;
    }
  }
  EXPECT_EQ(fired_at, 3);
  // Counting continues after the fire: hits_observed() reports opportunities
  // seen over the whole armed window, not just up to the trigger.
  EXPECT_EQ(fault::hits_observed(), 10);
}

TEST(FaultInjection, NonMatchingSitesDoNotCount) {
  DisarmGuard cleanup;
  fault::arm("tron.iter:2");
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(fault::hit(fault::kPoolChunk));
  EXPECT_EQ(fault::hits_observed(), 0);
  EXPECT_FALSE(fault::hit(fault::kTronIter));
  EXPECT_TRUE(fault::hit(fault::kTronIter));
}

TEST(FaultInjection, ReArmingResetsTheCounter) {
  DisarmGuard cleanup;
  fault::arm("tron.iter:2");
  EXPECT_FALSE(fault::hit(fault::kTronIter));
  fault::arm("tron.iter:2");
  EXPECT_FALSE(fault::hit(fault::kTronIter));  // hit 1 again after re-arm
  EXPECT_TRUE(fault::hit(fault::kTronIter));
}

TEST(FaultInjection, RejectsUnknownSiteAndBadHitCount) {
  DisarmGuard cleanup;
  EXPECT_THROW(fault::arm("no.such.site"), std::invalid_argument);
  EXPECT_THROW(fault::arm(""), std::invalid_argument);
  EXPECT_THROW(fault::arm("tron.iter:0"), std::invalid_argument);
  EXPECT_THROW(fault::arm("tron.iter:-2"), std::invalid_argument);
  EXPECT_THROW(fault::arm("tron.iter:abc"), std::invalid_argument);
  EXPECT_THROW(fault::arm("tron.iter:"), std::invalid_argument);
  EXPECT_FALSE(fault::armed()) << "a rejected spec must not arm anything";
  // The unknown-site diagnostic lists the registry so a typo is self-serviceable.
  try {
    fault::arm("no.such.site");
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("known sites"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("tron.iter"), std::string::npos);
  }
}

TEST(FaultInjection, UnarmedHitIsFalseAndCountsNothing) {
  fault::disarm();
  EXPECT_FALSE(fault::armed());
  EXPECT_FALSE(fault::hit(fault::kTronIter));
  EXPECT_EQ(fault::hits_observed(), 0);
}

TEST(FaultInjection, ScopedFaultDisarmsOnExit) {
  {
    fault::ScopedFault f("pool.chunk:7");
    EXPECT_TRUE(fault::armed());
  }
  EXPECT_FALSE(fault::armed());
}

TEST(FaultInjection, ArmFromEnvHonorsAndValidatesTheVariable) {
  DisarmGuard cleanup;
  fault::disarm();
  ASSERT_EQ(setenv("STATSIZE_FAULT", "tron.iter:2", 1), 0);
  fault::arm_from_env();
  EXPECT_TRUE(fault::armed());
  EXPECT_FALSE(fault::hit(fault::kTronIter));
  EXPECT_TRUE(fault::hit(fault::kTronIter));
  fault::disarm();

  ASSERT_EQ(unsetenv("STATSIZE_FAULT"), 0);
  fault::arm_from_env();  // unset -> no-op
  EXPECT_FALSE(fault::armed());

  // A malformed value is a hard error, not a silently ignored fault spec.
  ASSERT_EQ(setenv("STATSIZE_FAULT", "definitely.not.a.site", 1), 0);
  EXPECT_THROW(fault::arm_from_env(), std::invalid_argument);
  ASSERT_EQ(unsetenv("STATSIZE_FAULT"), 0);
}

TEST(FaultInjection, PoolChunkFaultPropagatesAndPoolSurvives) {
  ThreadGuard guard;
  DisarmGuard cleanup;
  runtime::set_threads(4);
  const std::size_t n = 1 << 16;
  std::vector<double> out(n, 0.0);
  auto fill = [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) out[i] = 1.0;
  };
  fault::arm("pool.chunk:1");
  try {
    runtime::parallel_for(n, 64, fill);
    FAIL() << "injected pool.chunk fault did not propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("pool.chunk"), std::string::npos);
  }
  // The fault is spent after firing once; the pool must run the same sweep
  // to completion even while still armed.
  std::fill(out.begin(), out.end(), 0.0);
  runtime::parallel_for(n, 64, fill);
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0.0), static_cast<double>(n));
}

// ---------------------------------------------------------------------------
// Augmented-Lagrangian checkpointing and degradation (solver-level contract)
// ---------------------------------------------------------------------------

/// min x^2 (unconstrained), x in [-10, 10], start 3.
nlp::Problem quadratic_problem() {
  nlp::Problem p;
  p.add_variable(-10.0, 10.0, 3.0, "x");
  const nlp::ElementFunction* sq = p.own(std::make_unique<nlp::SquareElement>());
  nlp::FunctionGroup obj;
  obj.elements.push_back({sq, {0}, 1.0});
  p.set_objective(obj);
  return p;
}

/// min x^2 subject to x - 1 = 0 — needs several multiplier updates, so the
/// outer loop runs long enough to checkpoint and then be interrupted.
nlp::Problem constrained_quadratic_problem() {
  nlp::Problem p = quadratic_problem();
  nlp::FunctionGroup c;
  c.constant = -1.0;
  c.linear.push_back({0, 1.0});
  p.add_equality(std::move(c));
  return p;
}

TEST(AugLagResilience, PreExpiredDeadlineReturnsScoredStartPoint) {
  const nlp::Problem p = quadratic_problem();
  runtime::CancelScope scope(nullptr, runtime::Deadline::after_seconds(0.0));
  const nlp::SolveResult r = nlp::solve_augmented_lagrangian(p);
  EXPECT_EQ(r.status, nlp::SolveStatus::kTimeLimit);
  EXPECT_NE(r.status_string().find("time-limit"), std::string::npos);
  EXPECT_TRUE(r.from_checkpoint);
  EXPECT_EQ(r.checkpoint_outer, -1);  // nothing completed: clamped start point
  ASSERT_EQ(r.x.size(), 1u);
  EXPECT_EQ(r.x[0], 3.0);
  EXPECT_EQ(r.objective, 9.0);  // still scored, outside any solver progress
  EXPECT_FALSE(r.ok());
}

TEST(AugLagResilience, InjectedOuterDeadlineReturnsBestCheckpoint) {
  DisarmGuard cleanup;
  const nlp::Problem p = constrained_quadratic_problem();

  // Uninjected reference: the solve needs well over three outer iterations.
  const nlp::SolveResult ref = nlp::solve_augmented_lagrangian(p);
  ASSERT_TRUE(ref.ok()) << ref.status_string();
  ASSERT_GE(ref.outer_iterations, 3);
  EXPECT_NEAR(ref.x[0], 1.0, 1e-5);

  // Fire a deadline at the head of the third outer iteration: checkpoints
  // exist for outers 0 and 1, and outer 1 (after one multiplier update) is
  // strictly more feasible, so it must be the one returned.
  fault::arm("auglag.outer:3");
  const nlp::SolveResult r = nlp::solve_augmented_lagrangian(p);
  EXPECT_EQ(r.status, nlp::SolveStatus::kTimeLimit);
  EXPECT_TRUE(r.from_checkpoint);
  EXPECT_EQ(r.checkpoint_outer, 1);
  ASSERT_EQ(r.x.size(), 1u);
  EXPECT_TRUE(std::isfinite(r.x[0]));
  EXPECT_NEAR(r.x[0], 35.0 / 36.0, 0.05);  // second outer iterate of the schedule
  EXPECT_LT(r.constraint_violation, 0.06);
  EXPECT_TRUE(r.breakdown_site.empty());
}

TEST(AugLagResilience, InjectedNaNObjectiveDegradesWithNamedSite) {
  DisarmGuard cleanup;
  const nlp::Problem p = constrained_quadratic_problem();
  fault::arm("auglag.eval.objective:1");  // very first evaluation goes NaN
  nlp::SolveResult r;
  ASSERT_NO_THROW(r = nlp::solve_augmented_lagrangian(p));
  EXPECT_EQ(r.status, nlp::SolveStatus::kNumericalBreakdown);
  EXPECT_NE(r.status_string().find("numerical-breakdown"), std::string::npos);
  EXPECT_TRUE(r.from_checkpoint);
  EXPECT_EQ(r.checkpoint_outer, -1);  // broke before any outer completed
  EXPECT_NE(r.breakdown_site.find("objective"), std::string::npos);
  ASSERT_EQ(r.x.size(), 1u);
  EXPECT_EQ(r.x[0], 3.0);  // clamped start point, honestly labelled
}

TEST(AugLagResilience, ConstraintPhaseFaultNamesItsConstraintAndLeavesModelReusable) {
  // AugLagModel::eval evaluates every constraint first and folds them in
  // ascending order afterwards; the constraint fault point sits between the
  // two phases and poisons c[m/2]. The fold must name exactly that
  // constraint, and the next evaluation must match a fresh model's bits.
  DisarmGuard cleanup;
  nlp::Problem p;
  p.add_variable(-10.0, 10.0, 3.0, "x");
  p.add_variable(-10.0, 10.0, -2.0, "y");
  const nlp::ElementFunction* sq = p.own(std::make_unique<nlp::SquareElement>());
  nlp::FunctionGroup obj;
  obj.elements.push_back({sq, {0}, 1.0});
  obj.elements.push_back({sq, {1}, 2.0});
  p.set_objective(obj);
  for (int j = 0; j < 3; ++j) {
    nlp::FunctionGroup c;
    c.constant = -1.0 - static_cast<double>(j);
    c.linear.push_back({j % 2, 1.0});
    c.elements.push_back({sq, {(j + 1) % 2}, 0.5});
    p.add_equality(std::move(c));
  }
  const std::vector<double> x{0.7, -1.3};
  const std::vector<double> multipliers{0.5, -0.25, 1.0};

  nlp::AugLagModel model(p, multipliers, 10.0);
  std::vector<double> grad;
  fault::arm("auglag.eval.constraint:1");
  try {
    model.eval(x, &grad);
    ADD_FAILURE() << "injected constraint fault did not surface";
  } catch (const nlp::EvalBreakdown& e) {
    EXPECT_EQ(e.site().rfind("constraint #1", 0), 0u) << e.site();
  }
  fault::disarm();

  const double psi = model.eval(x, &grad);
  nlp::AugLagModel fresh(p, multipliers, 10.0);
  std::vector<double> fresh_grad;
  EXPECT_EQ(psi, fresh.eval(x, &fresh_grad));
  EXPECT_EQ(grad, fresh_grad);
  EXPECT_EQ(model.constraint_values(), fresh.constraint_values());
  for (double cj : model.constraint_values()) EXPECT_TRUE(std::isfinite(cj));
}

// ---------------------------------------------------------------------------
// Sizer-level recovery contracts
// ---------------------------------------------------------------------------

TEST(SizerResilience, TinyTimeLimitReturnsScoredResult) {
  const Circuit c = netlist::make_tree_circuit();
  SizingSpec spec;
  spec.objective = Objective::min_delay(3.0);
  SizerOptions o;
  o.method = Method::kFullSpace;
  o.time_limit_seconds = 1e-9;  // expired before the first poll
  const SizingResult r = Sizer(c, spec).run(o);
  EXPECT_FALSE(r.converged);
  EXPECT_NE(r.status.find("time-limit"), std::string::npos) << r.status;
  EXPECT_EQ(r.retries_used, 0);
  expect_speeds_in_bounds(r, spec.max_speed);
  // finish() runs outside the cancel scope: the degraded sizing is still a
  // fully scored result, not a husk.
  EXPECT_TRUE(std::isfinite(r.circuit_delay.mu));
  EXPECT_GT(r.circuit_delay.mu, 0.0);
  EXPECT_GE(r.wall_seconds, 0.0);
}

TEST(SizerResilience, ExternalCancellationTokenStopsTheSolve) {
  const Circuit c = netlist::make_tree_circuit();
  SizingSpec spec;
  spec.objective = Objective::min_delay(0.0);
  runtime::CancellationToken tok;
  tok.request_cancel();
  SizerOptions o;
  o.method = Method::kReducedSpace;
  o.cancel = &tok;
  const SizingResult r = Sizer(c, spec).run(o);
  EXPECT_FALSE(r.converged);
  EXPECT_NE(r.status.find("time-limit"), std::string::npos) << r.status;
  expect_speeds_in_bounds(r, spec.max_speed);
  EXPECT_TRUE(std::isfinite(r.circuit_delay.mu));
}

TEST(SizerResilience, FullSpaceNaNMidSolveReturnsCheckpointNotThrow) {
  DisarmGuard cleanup;
  const Circuit c = netlist::make_tree_circuit();
  SizingSpec spec;
  spec.objective = Objective::min_delay(0.0);
  const Sizer sizer(c, spec);
  SizerOptions o;
  o.method = Method::kFullSpace;

  const SizingResult baseline = sizer.run(o);
  ASSERT_TRUE(baseline.converged) << baseline.status;

  // Phase 1: arm at an unreachable hit count to (a) prove an armed-but-
  // unfired fault leaves the result bit-identical, and (b) count how many
  // objective evaluations the solve performs.
  long n_evals = 0;
  {
    fault::ScopedFault probe("auglag.eval.objective:1000000000");
    const SizingResult armed = sizer.run(o);
    n_evals = fault::hits_observed();
    EXPECT_EQ(armed.status, baseline.status);
    EXPECT_EQ(armed.objective_value, baseline.objective_value);
    ASSERT_EQ(armed.speed.size(), baseline.speed.size());
    for (std::size_t i = 0; i < baseline.speed.size(); ++i) {
      EXPECT_EQ(armed.speed[i], baseline.speed[i]) << "node " << i;
    }
  }
  ASSERT_GE(n_evals, 2);

  // Phase 2: re-arm mid-solve. The NaN must surface as a degraded result,
  // never as an exception out of run().
  SizingResult broken;
  {
    fault::ScopedFault mid("auglag.eval.objective:" + std::to_string(std::max(1L, n_evals / 2)));
    ASSERT_NO_THROW(broken = sizer.run(o));
  }
  EXPECT_FALSE(broken.converged);
  EXPECT_NE(broken.status.find("numerical-breakdown"), std::string::npos) << broken.status;
  EXPECT_TRUE(broken.from_checkpoint);
  EXPECT_GE(broken.checkpoint_outer, -1);
  EXPECT_NE(broken.breakdown_site.find("objective"), std::string::npos) << broken.breakdown_site;
  expect_speeds_in_bounds(broken, spec.max_speed);
  EXPECT_TRUE(std::isfinite(broken.circuit_delay.mu));
}

TEST(SizerResilience, ReducedSpaceNaNNamesTheSite) {
  DisarmGuard cleanup;
  const Circuit c = netlist::make_tree_circuit();
  SizingSpec spec;
  spec.objective = Objective::min_delay(0.0);
  const Sizer sizer(c, spec);
  SizerOptions o;
  o.method = Method::kReducedSpace;

  long n_evals = 0;
  {
    fault::ScopedFault probe("reduced.eval:1000000000");
    const SizingResult armed = sizer.run(o);
    ASSERT_TRUE(armed.converged) << armed.status;
    n_evals = fault::hits_observed();
  }
  ASSERT_GE(n_evals, 2);

  SizingResult broken;
  {
    fault::ScopedFault mid("reduced.eval:" + std::to_string(std::max(1L, n_evals / 2)));
    ASSERT_NO_THROW(broken = sizer.run(o));
  }
  EXPECT_FALSE(broken.converged);
  EXPECT_EQ(broken.status, "reduced/numerical-breakdown");
  EXPECT_TRUE(broken.from_checkpoint);
  EXPECT_NE(broken.breakdown_site.find("reduced-space"), std::string::npos)
      << broken.breakdown_site;
  expect_speeds_in_bounds(broken, spec.max_speed);
  EXPECT_TRUE(std::isfinite(broken.circuit_delay.mu));
}

TEST(SizerResilience, ReducedSpaceOuterDeadlineReturnsTheOuterCheckpoint) {
  // Reduced space runs the one augmented-Lagrangian outer loop, so its
  // auglag.outer site and best-iterate checkpoint are full space's: a
  // deadline at the head of outer 1 returns the sizing outer 0 ended at.
  DisarmGuard cleanup;
  const Circuit c = netlist::make_tree_circuit();
  SizingSpec spec;
  spec.objective = Objective::min_area();
  spec.delay_constraint = core::DelayConstraint::at_most(8.0);  // the fastest sizing has mean 6.96
  const Sizer sizer(c, spec);
  SizerOptions o;
  o.method = Method::kReducedSpace;

  const SizingResult ref = sizer.run(o);
  ASSERT_TRUE(ref.converged) << ref.status;
  ASSERT_GE(ref.outer_iterations, 2);

  fault::ScopedFault f("auglag.outer:2");
  const SizingResult r = sizer.run(o);
  EXPECT_EQ(r.status, "reduced/time-limit");
  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(r.from_checkpoint);
  EXPECT_EQ(r.checkpoint_outer, 0);
  EXPECT_TRUE(r.breakdown_site.empty());
  expect_speeds_in_bounds(r, spec.max_speed);
  EXPECT_TRUE(std::isfinite(r.circuit_delay.mu));
}

TEST(SizerResilience, RetryAfterInjectedFirstStartFailureConverges) {
  DisarmGuard cleanup;
  const Circuit c = netlist::make_tree_circuit();
  SizingSpec spec;
  spec.objective = Objective::min_delay(0.0);
  SizerOptions o;
  o.method = Method::kFullSpace;
  o.max_retries = 2;

  // The first full-space objective evaluation goes NaN; the fault is then
  // spent, so the deterministic multistart retry must converge.
  fault::ScopedFault f("auglag.eval.objective:1");
  const SizingResult r = Sizer(c, spec).run(o);
  EXPECT_TRUE(r.converged) << r.status;
  EXPECT_GE(r.retries_used, 1);
  EXPECT_EQ(r.status.find("numerical-breakdown"), std::string::npos) << r.status;
  EXPECT_TRUE(r.breakdown_site.empty());
  expect_speeds_in_bounds(r, spec.max_speed);
}

TEST(SizerResilience, RetriesOffReportsTheBreakdownInstead) {
  DisarmGuard cleanup;
  const Circuit c = netlist::make_tree_circuit();
  SizingSpec spec;
  spec.objective = Objective::min_delay(0.0);
  SizerOptions o;
  o.method = Method::kFullSpace;

  fault::ScopedFault f("auglag.eval.objective:1");
  const SizingResult r = Sizer(c, spec).run(o);
  EXPECT_FALSE(r.converged);
  EXPECT_NE(r.status.find("numerical-breakdown"), std::string::npos) << r.status;
  EXPECT_EQ(r.retries_used, 0);
}

// ---------------------------------------------------------------------------
// Determinism: the resilience layer must not perturb clean runs
// ---------------------------------------------------------------------------

TEST(ResilienceDeterminism, CleanSizerRunsBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  netlist::RandomDagParams dp;
  dp.num_gates = 40;
  dp.seed = 7;
  const Circuit c = netlist::make_random_dag(dp);
  SizingSpec spec;
  spec.objective = Objective::min_delay(3.0);
  const Sizer sizer(c, spec);
  SizerOptions o;
  o.method = Method::kFullSpace;

  runtime::set_threads(1);
  const SizingResult serial = sizer.run(o);
  runtime::set_threads(4);
  const SizingResult par = sizer.run(o);

  EXPECT_EQ(par.status, serial.status);
  EXPECT_EQ(par.objective_value, serial.objective_value);
  EXPECT_EQ(par.circuit_delay.mu, serial.circuit_delay.mu);
  EXPECT_EQ(par.circuit_delay.var, serial.circuit_delay.var);
  ASSERT_EQ(par.speed.size(), serial.speed.size());
  for (std::size_t i = 0; i < serial.speed.size(); ++i) {
    EXPECT_EQ(par.speed[i], serial.speed[i]) << "node " << i;
  }
}

}  // namespace
}  // namespace statsize
