#include "core/sizer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <random>
#include <stdexcept>

#include "core/full_space.h"
#include "core/reduced_space.h"
#include "netlist/timing_view.h"
#include "nlp/auglag.h"
#include "nlp/breakdown.h"
#include "nlp/projected_lbfgs.h"
#include "runtime/cancel.h"
#include "runtime/fault.h"
#include "ssta/ssta.h"

namespace statsize::core {

using netlist::NodeId;

namespace {

void validate_spec(const SizingSpec& spec, int num_nodes) {
  if (spec.max_speed < 1.0) throw std::invalid_argument("max_speed must be >= 1");
  if (spec.objective.kind == ObjectiveKind::kSigma && !spec.delay_constraint) {
    throw std::invalid_argument(
        "sigma objectives need a delay constraint (otherwise sigma->min is the "
        "trivial all-max or all-min sizing)");
  }
  if (spec.objective.kind == ObjectiveKind::kWeighted &&
      static_cast<int>(spec.objective.weights.size()) != num_nodes) {
    throw std::invalid_argument("weighted objective needs one weight per NodeId");
  }
}

/// How far a circuit delay `t` breaks the spec's delay constraint (0 if none).
double violation(const SizingSpec& spec, const stat::NormalRV& t) {
  if (!spec.delay_constraint) return 0.0;
  const DelayConstraint& dc = *spec.delay_constraint;
  const double h = t.quantile_offset(dc.sigma_weight) - dc.bound;
  return dc.equality ? std::abs(h) : std::max(0.0, h);
}

/// Gate count up to which auto_method picks the full-space formulation.
constexpr int kFullSpaceGateLimit = 300;

}  // namespace

Method auto_method(const netlist::TimingView& view) {
  return view.num_gates() <= kFullSpaceGateLimit ? Method::kFullSpace : Method::kReducedSpace;
}

Sizer::Sizer(const netlist::TimingView& view, SizingSpec spec)
    : view_(&view), spec_(std::move(spec)) {
  validate_spec(spec_, view.num_nodes());
}

std::vector<double> Sizer::default_start() const {
  double s0 = 1.0;
  if (spec_.delay_constraint) {
    // Area-min under a delay bound starts from the fastest sizing (feasible
    // whenever the bound is achievable); equality-pinned problems start from
    // the middle of the sizing range so both directions are reachable.
    s0 = spec_.delay_constraint->equality ? 0.5 * (1.0 + spec_.max_speed) : spec_.max_speed;
  }
  return std::vector<double>(static_cast<std::size_t>(view_->num_nodes()), s0);
}

void Sizer::finish(SizingResult& result) const {
  const ssta::DelayCalculator calc(*view_, spec_.sigma_model);
  result.circuit_delay = ssta::run_ssta(calc, result.speed).circuit_delay;
  result.sum_speed = ssta::DelayCalculator::total_speed(*view_, result.speed);
  result.area = ssta::DelayCalculator::total_area(*view_, result.speed);
  result.constraint_violation = violation(spec_, result.circuit_delay);
}

namespace {

namespace fault = runtime::fault;

/// Lexicographic quality of a sizing: constraint violation first (rounded to
/// the feasibility tolerance), then objective value, both evaluated on the
/// *true* propagated timing rather than NLP variables.
struct Score {
  double violation = 0.0;
  double objective = 0.0;

  bool better_than(const Score& o, double feas_tol) const {
    const double va = std::max(violation - feas_tol, 0.0);
    const double vb = std::max(o.violation - feas_tol, 0.0);
    if (std::abs(va - vb) > 1e-12) return va < vb;
    return objective < o.objective;
  }
};

/// The spec objective evaluated at a sizing whose circuit delay is `t`.
double objective_metric(const netlist::TimingView& v, const SizingSpec& spec,
                        const std::vector<double>& speed, const stat::NormalRV& t) {
  switch (spec.objective.kind) {
    case ObjectiveKind::kDelay:
      return t.mu + spec.objective.sigma_weight * t.sigma();
    case ObjectiveKind::kArea:
      return ssta::DelayCalculator::total_speed(v, speed);
    case ObjectiveKind::kSigma:
      return spec.objective.sign * t.sigma();
    case ObjectiveKind::kWeighted: {
      double w = 0.0;
      for (NodeId id : v.gates_in_topo_order()) {
        w += spec.objective.weights[static_cast<std::size_t>(id)] *
             speed[static_cast<std::size_t>(id)];
      }
      return w;
    }
  }
  return 0.0;
}

Score score_sizing(const netlist::TimingView& v, const SizingSpec& spec,
                   const std::vector<double>& speed) {
  const ReducedEvaluator eval(v, spec.sigma_model);
  const stat::NormalRV t = eval.eval(speed);
  return {violation(spec, t), objective_metric(v, spec, speed, t)};
}

/// Seeded multiplicative jitter for multistart retries. mt19937's output
/// sequence is pinned by the standard, so retry starts are bit-reproducible
/// across platforms; amplitude grows with the attempt number.
std::vector<double> perturbed_start(const std::vector<double>& start, double max_speed,
                                    int attempt) {
  constexpr unsigned kRetrySeed = 12345u;
  std::vector<double> s = start;
  std::mt19937 rng(kRetrySeed + 7919u * static_cast<unsigned>(attempt));
  const double amp = std::min(0.05 * attempt, 0.5);
  for (double& v : s) {
    const double u = static_cast<double>(rng()) * (1.0 / 4294967296.0);  // [0, 1)
    v = std::clamp(v * (1.0 + amp * (2.0 * u - 1.0)), 1.0, max_speed);
  }
  return s;
}

/// Per-retry backoff of the initial penalty parameter, bounded below so a
/// retry cascade cannot drive rho to zero.
constexpr double kRetryRhoBackoff = 0.1;
constexpr double kMinRhoScale = 1e-3;

/// The outer loop's settings for one attempt; `rho_scale` backs the initial
/// penalty off on retries.
nlp::AugLagOptions outer_options(const SizerOptions& options, double rho_scale) {
  return {.initial_rho = nlp::AugLagOptions{}.initial_rho * rho_scale,
          .feasibility_tol = options.feasibility_tol,
          .optimality_tol = options.optimality_tol,
          .max_outer_iterations = options.max_outer_iterations,
          .max_inner_iterations = options.max_inner_iterations,
          .verbose = options.verbose};
}

/// The outer loop's warm start from a previous sizing (nullable). Its
/// multipliers and rho belong to the problem that made them: they carry over
/// only when that problem had `m` constraints too. Otherwise the resize
/// starts from the speeds alone, exactly as run() from them does.
nlp::WarmStart outer_warm(const SizingWarmStart* warm, int m) {
  nlp::WarmStart w;
  if (warm != nullptr && static_cast<int>(warm->multipliers.size()) == m) {
    w.multipliers = warm->multipliers;
    w.rho = warm->rho;
  }
  return w;
}

/// The sizing an outer-loop solve reports, its speeds per NodeId given.
SizingResult sizing_from(const nlp::SolveResult& sol, const char* method,
                         const std::vector<double>& speed) {
  SizingResult r;
  r.converged = sol.ok();
  r.status = method + sol.status_string();
  r.speed = speed;
  r.objective_value = sol.objective;
  r.iterations = sol.inner_iterations;
  r.outer_iterations = sol.outer_iterations;
  r.from_checkpoint = sol.from_checkpoint;
  r.checkpoint_outer = sol.checkpoint_outer;
  r.breakdown_site = sol.breakdown_site;
  r.warm = {speed, sol.multipliers, sol.final_rho};
  return r;
}

}  // namespace

SizingResult Sizer::run(const SizerOptions& options) const {
  return run_impl(options, default_start(), nullptr);
}

SizingResult Sizer::run(const SizerOptions& options,
                        const std::vector<double>& initial_speed) const {
  return run_impl(options, initial_speed, nullptr);
}

SizingResult Sizer::resize(const SizerOptions& options, const SizingWarmStart& warm) const {
  if (!warm.speed.empty() &&
      warm.speed.size() != static_cast<std::size_t>(view_->num_nodes())) {
    throw std::invalid_argument("Sizer::resize: warm.speed has " +
                                std::to_string(warm.speed.size()) + " entries for " +
                                std::to_string(view_->num_nodes()) +
                                " nodes (indexed by NodeId, like SizingResult::speed)");
  }
  return run_impl(options, warm.speed.empty() ? default_start() : warm.speed, &warm);
}

SizingResult Sizer::run_impl(const SizerOptions& options, const std::vector<double>& initial_speed,
                             const SizingWarmStart* warm) const {
  if (options.max_retries < 0) {
    throw std::invalid_argument("Sizer: max_retries must be >= 0, got " +
                                std::to_string(options.max_retries));
  }
  const auto t0 = std::chrono::steady_clock::now();

  // Degraded fallback when a cancel/tripwire fires outside the solvers' own
  // checkpointed regions (e.g. during full-space problem construction): the
  // clamped start sizing, honestly labelled.
  auto degraded = [&](const std::vector<double>& start, const char* what, std::string site) {
    SizingResult r;
    r.status = std::string(options.method == Method::kFullSpace ? "full-space/" : "reduced/") + what;
    r.breakdown_site = std::move(site);
    r.from_checkpoint = true;
    r.speed.assign(static_cast<std::size_t>(view_->num_nodes()), 1.0);
    for (NodeId id : view_->gates_in_topo_order()) {
      r.speed[static_cast<std::size_t>(id)] =
          std::clamp(start[static_cast<std::size_t>(id)], 1.0, spec_.max_speed);
    }
    return r;
  };

  SizingResult result;
  int value_evals = 0;
  int gradient_evals = 0;
  {
    const runtime::Deadline deadline = options.time_limit_seconds > 0.0
                                           ? runtime::Deadline::after_seconds(options.time_limit_seconds)
                                           : runtime::Deadline::never();
    runtime::CancelScope scope(options.cancel, deadline);

    // A failed solve is worth retrying only when the failure is
    // start-dependent — a numerical breakdown or a stall. Deadline and
    // budget exhaustion would just reproduce.
    auto wants_retry = [](const SizingResult& r) {
      return !r.converged && (r.status.find("numerical-breakdown") != std::string::npos ||
                              r.status.find("stalled") != std::string::npos);
    };

    int attempts_run = 0;
    double rho_scale = 1.0;
    for (int attempt = 0; attempt <= options.max_retries; ++attempt) {
      if (attempt > 0 && runtime::cancel_requested()) break;  // no budget left for retries
      const std::vector<double> start =
          attempt == 0 ? initial_speed
                       : perturbed_start(initial_speed, spec_.max_speed, attempt);
      SizingResult r;
      try {
        // Warm multiplier state only applies to the un-perturbed first
        // attempt: a retry start is a different point, where the old
        // multipliers are no longer meaningful.
        const SizingWarmStart* w = attempt == 0 ? warm : nullptr;
        r = options.method == Method::kFullSpace ? run_full_space(options, start, rho_scale, w)
                                                 : run_reduced_space(options, start, rho_scale, w);
      } catch (const runtime::OperationCancelled&) {
        r = degraded(start, "time-limit", "");
      } catch (const nlp::EvalBreakdown& e) {
        r = degraded(start, "numerical-breakdown", e.site());
      }
      ++attempts_run;
      value_evals += r.value_evals;
      gradient_evals += r.gradient_evals;
      if (attempt == 0) {
        result = std::move(r);
      } else {
        // Keep the lexicographically better sizing; an expired deadline can
        // make the comparison itself uncomputable, in which case keep what
        // we have.
        bool take = r.converged && !result.converged;
        if (r.converged == result.converged) {
          try {
            take = score_sizing(*view_, spec_, r.speed)
                       .better_than(score_sizing(*view_, spec_, result.speed),
                                    options.feasibility_tol);
          } catch (const runtime::OperationCancelled&) {
            take = false;
          }
        }
        if (take) result = std::move(r);
      }
      if (result.converged || !wants_retry(result)) break;
      rho_scale = std::max(rho_scale * kRetryRhoBackoff, kMinRhoScale);
    }
    result.retries_used = attempts_run - 1;
  }
  result.value_evals = value_evals;
  result.gradient_evals = gradient_evals;
  // The final SSTA scoring runs outside the cancel scope: an expired deadline
  // must not poison the returned timing numbers.
  finish(result);
  // Reduced space reports the objective alone (no augmented-Lagrangian
  // terms), at the returned speeds, from the timing finish() just computed.
  if (options.method == Method::kReducedSpace) {
    result.objective_value = objective_metric(*view_, spec_, result.speed, result.circuit_delay);
  }
  result.wall_seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return result;
}

SizingResult Sizer::run_full_space(const SizerOptions& options, const std::vector<double>& start,
                                   double rho_scale, const SizingWarmStart* warm_in) const {
  std::vector<double> s0 = start;
  SizingResult warm;
  // An ECO warm start replaces the reduced-space pre-solve: the previous
  // solution's sizes already play the feasible-start role.
  if (warm_in == nullptr) {
    SizerOptions pre = options;
    pre.verbose = false;
    warm = run_reduced_space(pre, start, rho_scale, nullptr);
    s0 = warm.speed;
  }
  FullSpaceFormulation form = build_full_space(*view_, spec_, s0);
  const nlp::SolveResult sol =
      nlp::solve_augmented_lagrangian(*form.problem, outer_options(options, rho_scale),
                                      outer_warm(warm_in, form.problem->num_constraints()));

  SizingResult result = sizing_from(sol, "full-space/", form.speeds_from(sol.x));
  result.value_evals = warm.value_evals;
  result.gradient_evals = warm.gradient_evals;

  // A non-converged augmented-Lagrangian run can drift off the warm-start
  // optimum; never return something worse than the point we started from.
  // (An expired deadline can make the rescore throw — keep the solver's
  // checkpoint in that case.)
  if (!result.converged && warm_in == nullptr) {
    bool use_warm = false;
    try {
      use_warm = score_sizing(*view_, spec_, warm.speed)
                     .better_than(score_sizing(*view_, spec_, result.speed),
                                  options.feasibility_tol);
    } catch (const runtime::OperationCancelled&) {
      use_warm = false;
    }
    if (use_warm) {
      result.speed = warm.speed;
      result.converged = warm.converged;
      result.status += "+fallback:" + warm.status;
      result.iterations += warm.iterations;
      result.warm.speed = result.speed;
    }
  }
  return result;
}

SizingResult Sizer::run_reduced_space(const SizerOptions& options,
                                      const std::vector<double>& start,
                                      double rho_scale, const SizingWarmStart* warm_in) const {
  const netlist::TimingView& v = *view_;
  const ReducedEvaluator eval(v, spec_.sigma_model);

  // Optimizer variables: the speed factor per gate, then, for an inequality
  // delay constraint, a slack in [0, inf) as Problem::add_inequality makes
  // one. The one constraint row is c = mu + k sigma - D (+ s), in delay units
  // like full space's delay row.
  const std::vector<NodeId>& gates = v.gates_in_topo_order();
  const std::size_t ng = gates.size();
  const DelayConstraint* dc = spec_.delay_constraint ? &*spec_.delay_constraint : nullptr;
  const bool has_slack = dc != nullptr && !dc->equality;
  nlp::OuterProblem problem;
  problem.num_constraints = dc != nullptr ? 1 : 0;
  problem.lower.assign(ng, 1.0);
  problem.upper.assign(ng, spec_.max_speed);
  for (NodeId id : gates) problem.start.push_back(start[static_cast<std::size_t>(id)]);
  if (has_slack) {
    problem.lower.push_back(0.0);
    problem.upper.push_back(nlp::kInfinity);
    problem.start.push_back(0.0);
  }

  std::vector<double> speed(static_cast<std::size_t>(v.num_nodes()), 1.0);
  auto set_speed = [&](const std::vector<double>& xs) {
    for (std::size_t i = 0; i < ng; ++i) speed[static_cast<std::size_t>(gates[i])] = xs[i];
  };
  problem.eval = [&](const std::vector<double>& xs, std::vector<double>& c) {
    set_speed(xs);
    const stat::NormalRV t = eval.eval(speed);
    c.clear();
    if (dc != nullptr) {
      c.push_back(t.mu + dc->sigma_weight * t.sigma() - dc->bound + (has_slack ? xs[ng] : 0.0));
    }
    return objective_metric(v, spec_, speed, t);
  };

  // L-BFGS minimizes phi(S) = min over s >= 0 of Psi(S, s) at the inner
  // solve's (lambda, rho). Psi is a convex quadratic in the slack, so each
  // value() puts the slack at its minimizer and phi's slack gradient is 0:
  // L-BFGS moves the speeds alone, and the inner solve stores the slack of
  // its last accepted point. value() is one taped forward sweep, whose Tmax
  // gives phi and the adjoint seeds; gradient() is one adjoint over that
  // tape, asked for only at the start point and at accepted steps.
  const ObjectiveKind kind = spec_.objective.kind;
  double lambda = 0.0;
  double rho = 0.0;
  double slack = 0.0;
  double accepted_slack = 0.0;
  double seed_mu = 0.0;
  double seed_var = 0.0;
  std::vector<double> full_grad;
  int value_evals = 0;
  int gradient_evals = 0;
  auto value = [&](const std::vector<double>& xs) {
    ++value_evals;
    set_speed(xs);
    const stat::NormalRV t = eval.taped_forward(speed);
    const double sigma = t.sigma();
    const double inv2s = sigma > 1e-12 ? 0.5 / sigma : 0.0;
    // The seeds carry the objective's timing part; gradient() adds the
    // linear speed part of area and weighted objectives.
    double f = objective_metric(v, spec_, speed, t);
    seed_mu = kind == ObjectiveKind::kDelay ? 1.0 : 0.0;
    seed_var = (kind == ObjectiveKind::kDelay   ? spec_.objective.sigma_weight
                : kind == ObjectiveKind::kSigma ? spec_.objective.sign
                                                : 0.0) *
               inv2s;
    if (dc != nullptr) {
      const double h = t.mu + dc->sigma_weight * sigma - dc->bound;
      slack = has_slack ? std::max(0.0, lambda / rho - h) : 0.0;
      const double c = h + slack;
      f += -lambda * c + 0.5 * rho * c * c;
      const double dpsi_dh = rho * c - lambda;
      seed_mu += dpsi_dh;
      seed_var += dpsi_dh * dc->sigma_weight * inv2s;
    }
    // Tripwires at the evaluation boundary (DESIGN.md §9): name the gate, not
    // "NaN somewhere".
    if (fault::hit(fault::kReducedEval)) f = std::numeric_limits<double>::quiet_NaN();
    if (!std::isfinite(f)) {
      throw nlp::EvalBreakdown("reduced-space objective (mu=" + std::to_string(t.mu) +
                               ", sigma=" + std::to_string(sigma) + ")");
    }
    return f;
  };
  auto gradient = [&](std::vector<double>& grad) {
    ++gradient_evals;
    if (seed_mu != 0.0 || seed_var != 0.0) {
      eval.adjoint(speed, seed_mu, seed_var, full_grad);
    } else {
      full_grad.assign(speed.size(), 0.0);
    }
    grad.resize(problem.lower.size());
    for (std::size_t i = 0; i < ng; ++i) {
      grad[i] = full_grad[static_cast<std::size_t>(gates[i])];
      if (kind == ObjectiveKind::kArea) {
        grad[i] += 1.0;
      } else if (kind == ObjectiveKind::kWeighted) {
        grad[i] += spec_.objective.weights[static_cast<std::size_t>(gates[i])];
      }
      if (!std::isfinite(grad[i])) {
        throw nlp::EvalBreakdown("reduced-space gradient (gate " + v.name(gates[i]) + ")");
      }
    }
    if (has_slack) {
      grad[ng] = 0.0;
      accepted_slack = slack;
    }
  };
  const nlp::LbfgsObjective objective{value, gradient};
  const nlp::InnerMinimizer lbfgs = [&](std::vector<double>& x,
                                        const std::vector<double>& multipliers, double outer_rho,
                                        double tol, int max_iterations) {
    lambda = multipliers.empty() ? 0.0 : multipliers[0];
    rho = outer_rho;
    const nlp::LbfgsResult r = nlp::minimize_projected_lbfgs(objective, x, problem.lower,
                                                             problem.upper, {tol, max_iterations});
    if (has_slack) x[ng] = accepted_slack;
    return nlp::InnerResult{r.iterations, r.projected_gradient};
  };
  // The delay row is judged relative to the bound, so the same tolerance
  // fits 7-unit trees and 150-unit netlists.
  nlp::AugLagOptions al = outer_options(options, rho_scale);
  if (dc != nullptr) al.feasibility_tol *= 1.0 + std::abs(dc->bound);
  const nlp::SolveResult sol = nlp::solve_augmented_lagrangian(
      problem, lbfgs, al, outer_warm(warm_in, problem.num_constraints));

  set_speed(sol.x);
  SizingResult result = sizing_from(sol, "reduced/", speed);
  result.value_evals = value_evals;
  result.gradient_evals = gradient_evals;
  return result;
}

}  // namespace statsize::core
