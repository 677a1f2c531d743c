#include "core/sizer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
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
  if (spec_.delay_constraint) {
    const DelayConstraint& dc = *spec_.delay_constraint;
    const double metric = result.delay_metric(dc.sigma_weight);
    const double h = metric - dc.bound;
    result.constraint_violation = dc.equality ? std::abs(h) : std::max(0.0, h);
  }
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
  Score s;
  s.objective = objective_metric(v, spec, speed, t);
  if (spec.delay_constraint) {
    const DelayConstraint& dc = *spec.delay_constraint;
    const double h = t.mu + dc.sigma_weight * t.sigma() - dc.bound;
    s.violation = dc.equality ? std::abs(h) : std::max(0.0, h);
  }
  return s;
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
  if (!std::isfinite(warm.lambda) || !std::isfinite(warm.rho)) {
    throw std::invalid_argument("Sizer::resize: warm lambda/rho must be finite");
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
        r = run_attempt(options, start, rho_scale, attempt == 0 ? warm : nullptr);
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

SizingResult Sizer::run_attempt(const SizerOptions& options, const std::vector<double>& start,
                                double rho_scale, const SizingWarmStart* warm) const {
  return options.method == Method::kFullSpace
             ? run_full_space(options, start, rho_scale, warm)
             : run_reduced_space(options, start, rho_scale, warm);
}

SizingResult Sizer::run_full_space(const SizerOptions& options, const std::vector<double>& start,
                                   double rho_scale, const SizingWarmStart* warm_in) const {
  std::vector<double> s0 = start;
  SizingResult warm;
  // An ECO warm start replaces the reduced-space pre-solve: the previous
  // solution's sizes already play the feasible-start role.
  if (warm_in == nullptr) {
    SizerOptions pre = options;
    pre.method = Method::kReducedSpace;
    pre.verbose = false;
    warm = run_reduced_space(pre, start, rho_scale, nullptr);
    s0 = warm.speed;
  }
  FullSpaceFormulation form = build_full_space(*view_, spec_, s0);

  nlp::AugLagOptions al;
  al.initial_rho *= rho_scale;
  al.feasibility_tol = options.feasibility_tol;
  al.optimality_tol = options.optimality_tol;
  al.max_outer_iterations = options.max_outer_iterations;
  al.max_inner_iterations = options.max_inner_iterations;
  al.verbose = options.verbose;
  nlp::WarmStart nlp_warm;  // empty fields = cold defaults
  if (warm_in != nullptr) {
    if (static_cast<int>(warm_in->multipliers.size()) == form.problem->num_constraints()) {
      nlp_warm.multipliers = warm_in->multipliers;
    }
    nlp_warm.rho = warm_in->rho;
  }
  const nlp::SolveResult sol = nlp::solve_augmented_lagrangian(*form.problem, al, nlp_warm);

  SizingResult result;
  result.converged = sol.ok();
  result.status = "full-space/" + sol.status_string();
  result.speed = form.speeds_from(sol.x);
  result.objective_value = sol.objective;
  result.iterations = sol.inner_iterations;
  result.outer_iterations = sol.outer_iterations;
  result.value_evals = warm.value_evals;
  result.gradient_evals = warm.gradient_evals;
  result.from_checkpoint = sol.from_checkpoint;
  result.checkpoint_outer = sol.checkpoint_outer;
  result.breakdown_site = sol.breakdown_site;
  result.warm.speed = result.speed;
  result.warm.multipliers = sol.multipliers;
  result.warm.rho = sol.final_rho;

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

  // Optimizer variables: speed factor per gate.
  const std::vector<NodeId>& gates = v.gates_in_topo_order();
  const std::size_t ng = gates.size();
  std::vector<double> x(ng);
  for (std::size_t i = 0; i < ng; ++i) {
    x[i] = std::clamp(start[static_cast<std::size_t>(gates[i])], 1.0, spec_.max_speed);
  }
  const std::vector<double> lo(ng, 1.0);
  const std::vector<double> hi(ng, spec_.max_speed);

  std::vector<double> speed(static_cast<std::size_t>(v.num_nodes()), 1.0);
  std::vector<double> full_grad;
  // An ECO warm start resumes the multiplier/penalty schedule where the
  // previous solve left it; cold solves estimate lambda from zero.
  double lambda = warm_in != nullptr ? warm_in->lambda : 0.0;
  double rho = warm_in != nullptr && warm_in->rho > 0.0 ? warm_in->rho : 10.0 * rho_scale;

  const bool has_constraint = spec_.delay_constraint.has_value();
  const double obj_k =
      spec_.objective.kind == ObjectiveKind::kDelay ? spec_.objective.sigma_weight : 0.0;

  // F(S) = objective + augmented-Lagrangian constraint terms. value() runs
  // one taped forward sweep and derives f and the adjoint seeds from its
  // Tmax; gradient() runs one adjoint over that tape with those seeds, and
  // L-BFGS asks for it only at the start point and at accepted steps.
  double seed_mu = 0.0;
  double seed_var = 0.0;
  int value_evals = 0;
  int gradient_evals = 0;
  auto value = [&](const std::vector<double>& xs) {
    ++value_evals;
    for (std::size_t i = 0; i < ng; ++i) speed[static_cast<std::size_t>(gates[i])] = xs[i];
    const stat::NormalRV t = eval.taped_forward(speed);
    const double sigma = t.sigma();
    const double inv2s = sigma > 1e-12 ? 0.5 / sigma : 0.0;

    double f = 0.0;
    seed_mu = 0.0;
    seed_var = 0.0;
    switch (spec_.objective.kind) {
      case ObjectiveKind::kDelay:
        f = t.mu + obj_k * sigma;
        seed_mu = 1.0;
        seed_var = obj_k * inv2s;
        break;
      case ObjectiveKind::kArea:
        for (std::size_t i = 0; i < ng; ++i) f += xs[i];
        break;
      case ObjectiveKind::kSigma:
        f = spec_.objective.sign * sigma;
        seed_var = spec_.objective.sign * inv2s;
        break;
      case ObjectiveKind::kWeighted:
        for (std::size_t i = 0; i < ng; ++i) {
          f += spec_.objective.weights[static_cast<std::size_t>(gates[i])] * xs[i];
        }
        break;
    }
    if (has_constraint) {
      const DelayConstraint& dc = *spec_.delay_constraint;
      const double h = t.mu + dc.sigma_weight * sigma - dc.bound;
      double dpen_dh;
      if (dc.equality) {
        f += lambda * h + 0.5 * rho * h * h;
        dpen_dh = lambda + rho * h;
      } else {
        const double m = std::max(0.0, lambda + rho * h);
        f += (m * m - lambda * lambda) / (2.0 * rho);
        dpen_dh = m;
      }
      seed_mu += dpen_dh;
      seed_var += dpen_dh * dc.sigma_weight * inv2s;
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
    grad.resize(ng);
    for (std::size_t i = 0; i < ng; ++i) {
      grad[i] = full_grad[static_cast<std::size_t>(gates[i])];
      if (spec_.objective.kind == ObjectiveKind::kArea) {
        grad[i] += 1.0;
      } else if (spec_.objective.kind == ObjectiveKind::kWeighted) {
        grad[i] += spec_.objective.weights[static_cast<std::size_t>(gates[i])];
      }
      if (!std::isfinite(grad[i])) {
        throw nlp::EvalBreakdown("reduced-space gradient (gate " + v.name(gates[i]) + ")");
      }
    }
  };
  const nlp::LbfgsObjective objective{value, gradient};

  SizingResult result;
  nlp::LbfgsOptions lb;
  lb.tol = options.optimality_tol;
  lb.max_iterations = options.max_inner_iterations;

  // Best-iterate checkpoint across the constrained outer loop (scored on the
  // true propagated timing, which the loop computes anyway). Restored only
  // when the run degrades — normal exits return exactly the pre-resilience
  // iterate.
  std::vector<double> ckpt_x;
  Score ckpt_score;
  int ckpt_outer = -1;
  bool have_ckpt = false;
  int total_it = 0;
  int outers_run = 0;

  try {
    if (!has_constraint) {
      const nlp::LbfgsResult r = minimize_projected_lbfgs(objective, x, lo, hi, lb);
      result.converged = r.converged;
      result.iterations = r.iterations;
      result.status = std::string("reduced/") + (r.converged ? "converged" : "max-iterations");
    } else {
      const DelayConstraint& dc = *spec_.delay_constraint;
      // The delay metric is O(bound); judge feasibility relative to it so the
      // same tolerance works for 7-unit trees and 150-unit netlists.
      const double feas = options.feasibility_tol * (1.0 + std::abs(dc.bound));
      bool done = false;
      double viol = 0.0;
      for (int outer = 0; outer < options.max_outer_iterations && !done; ++outer) {
        // LANCELOT-style omega schedule: early subproblems are solved loosely
        // (their multipliers are wrong anyway), tightening toward the final
        // optimality tolerance. A warm-started resize skips the loose rungs —
        // its multipliers are already near-correct, so the loose subproblem
        // would just wander off the old optimum and have to walk back.
        nlp::LbfgsOptions lb_outer = lb;
        lb_outer.tol = warm_in != nullptr ? lb.tol
                                          : std::max(lb.tol, 1e-2 / std::pow(4.0, outer));
        const nlp::LbfgsResult r = minimize_projected_lbfgs(objective, x, lo, hi, lb_outer);
        total_it += r.iterations;
        ++outers_run;
        for (std::size_t i = 0; i < ng; ++i) speed[static_cast<std::size_t>(gates[i])] = x[i];
        const stat::NormalRV probe = eval.eval(speed);
        const double h = probe.mu + dc.sigma_weight * probe.sigma() - dc.bound;
        viol = dc.equality ? std::abs(h) : std::max(0.0, h);
        if (options.verbose) {
          std::printf("[sizer-reduced] outer=%d viol=%.3e pg=%.3e rho=%.1e\n", outer, viol,
                      r.projected_gradient, rho);
        }
        const double obj_now = objective_metric(v, spec_, speed, probe);
        if (std::isfinite(viol) && std::isfinite(obj_now) &&
            (!have_ckpt || Score{viol, obj_now}.better_than(ckpt_score, feas))) {
          ckpt_x = x;
          ckpt_score = Score{viol, obj_now};
          ckpt_outer = outer;
          have_ckpt = true;
        }
        if (viol <= feas && lb_outer.tol <= 2.0 * lb.tol &&
            r.projected_gradient <= 10.0 * options.optimality_tol) {
          done = true;
          break;
        }
        // Multiplier / penalty updates (PHR).
        if (dc.equality) {
          lambda += rho * h;
        } else {
          lambda = std::max(0.0, lambda + rho * h);
        }
        if (viol > 0.25 * feas) rho = std::min(rho * 4.0, 1e9);
      }
      result.converged = done;
      result.iterations = total_it;
      result.status = std::string("reduced/") + (done ? "converged" : "max-iterations");
    }
  } catch (const runtime::OperationCancelled&) {
    result.converged = false;
    result.status = "reduced/time-limit";
    result.iterations = total_it;
    result.from_checkpoint = true;
    if (have_ckpt) x = ckpt_x;  // else: last accepted L-BFGS iterate, still valid
    result.checkpoint_outer = ckpt_outer;
  } catch (const nlp::EvalBreakdown& e) {
    result.converged = false;
    result.status = "reduced/numerical-breakdown";
    result.breakdown_site = e.site();
    result.iterations = total_it;
    result.from_checkpoint = true;
    if (have_ckpt) x = ckpt_x;
    result.checkpoint_outer = ckpt_outer;
  }

  result.outer_iterations = has_constraint ? outers_run : 1;
  result.speed.assign(static_cast<std::size_t>(v.num_nodes()), 1.0);
  for (std::size_t i = 0; i < ng; ++i) {
    result.speed[static_cast<std::size_t>(gates[i])] = x[i];
  }
  result.warm.speed = result.speed;
  result.warm.lambda = lambda;
  result.warm.rho = rho;
  result.value_evals = value_evals;
  result.gradient_evals = gradient_evals;
  return result;
}

}  // namespace statsize::core
