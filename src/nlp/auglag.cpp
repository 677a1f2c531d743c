#include "nlp/auglag.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "nlp/breakdown.h"
#include "nlp/tron.h"
#include "runtime/fault.h"
#include "runtime/cancel.h"

namespace statsize::nlp {

namespace {

namespace fault = runtime::fault;

/// "constraint #3 (vars varT_n7, muT_n7, ...)" — names the first few variables
/// a non-finite group touches so the diagnostic points at a gate, not at
/// "NaN somewhere".
std::string describe_group(const Problem& p, const FunctionGroup& g, const std::string& what) {
  std::string site = what;
  std::vector<int> vars;
  for (const LinearTerm& t : g.linear) vars.push_back(t.var);
  for (const ElementRef& e : g.elements) vars.insert(vars.end(), e.vars.begin(), e.vars.end());
  if (!vars.empty()) {
    site += " (vars ";
    const std::size_t shown = vars.size() < 4 ? vars.size() : 4;
    for (std::size_t i = 0; i < shown; ++i) {
      if (i) site += ", ";
      site += p.var_name(vars[i]);
    }
    if (vars.size() > shown) site += ", ...";
    site += ")";
  }
  return site;
}

}  // namespace

std::string SolveResult::status_string() const {
  switch (status) {
    case SolveStatus::kConverged: return "converged";
    case SolveStatus::kAcceptable: return "acceptable";
    case SolveStatus::kMaxIterations: return "max-iterations";
    case SolveStatus::kStalled: return "stalled";
    case SolveStatus::kTimeLimit: return "time-limit";
    case SolveStatus::kNumericalBreakdown: return "numerical-breakdown";
  }
  return "unknown";
}

AugLagModel::AugLagModel(const Problem& problem, std::vector<double> multipliers, double rho)
    : problem_(&problem), multipliers_(std::move(multipliers)), rho_(rho) {
  if (static_cast<int>(multipliers_.size()) != problem.num_constraints()) {
    throw std::invalid_argument("multiplier count != constraint count");
  }
  // Preallocate snapshot storage: one slot per element instance, Hessians
  // packed contiguously. Sparse constraint-gradient index structure is
  // static; only values are refreshed per evaluation.
  std::size_t hess_total = 0;
  auto count_group = [&hess_total, this](const FunctionGroup& g) {
    for (const ElementRef& e : g.elements) {
      const int n = e.fn->arity();
      if (n > kMaxElementArity) {
        throw std::invalid_argument("AugLagModel: element arity " + std::to_string(n) +
                                    " exceeds the supported maximum of " +
                                    std::to_string(kMaxElementArity));
      }
      snapshots_.push_back({e.fn, e.vars.data(), e.weight, nullptr});
      hess_total += static_cast<std::size_t>(n * (n + 1) / 2);
    }
  };
  count_group(problem.objective());
  snap_offset_.reserve(static_cast<std::size_t>(problem.num_constraints()));
  for (int j = 0; j < problem.num_constraints(); ++j) {
    snap_offset_.push_back(snapshots_.size());
    count_group(problem.constraint(j));
  }
  hess_storage_.resize(hess_total);
  std::size_t offset = 0;
  for (ElementSnapshot& s : snapshots_) {
    const int n = s.fn->arity();
    s.hess = hess_storage_.data() + offset;
    offset += static_cast<std::size_t>(n * (n + 1) / 2);
  }

  c_.resize(static_cast<std::size_t>(problem.num_constraints()));
  cgrad_idx_.resize(c_.size());
  cgrad_val_.resize(c_.size());
  for (int j = 0; j < problem.num_constraints(); ++j) {
    const FunctionGroup& g = problem.constraint(j);
    auto& idx = cgrad_idx_[static_cast<std::size_t>(j)];
    for (const LinearTerm& t : g.linear) idx.push_back(t.var);
    for (const ElementRef& e : g.elements) idx.insert(idx.end(), e.vars.begin(), e.vars.end());
    cgrad_val_[static_cast<std::size_t>(j)].resize(idx.size());
  }
}

double AugLagModel::eval(const std::vector<double>& x, std::vector<double>* grad) {
  const Problem& p = *problem_;
  const std::size_t m = static_cast<std::size_t>(p.num_constraints());
  if (grad == nullptr) {
    // Value-only probe: cheap pass, snapshot untouched.
    double psi = p.eval_objective(x);
    if (!std::isfinite(psi)) {
      throw EvalBreakdown(describe_group(p, p.objective(), "objective (value probe)"));
    }
    for (std::size_t j = 0; j < m; ++j) {
      const double cj = p.constraint(static_cast<int>(j)).eval(x);
      if (!std::isfinite(cj)) {
        throw EvalBreakdown(describe_group(p, p.constraint(static_cast<int>(j)),
                                           "constraint #" + std::to_string(j) + " (value probe)"));
      }
      psi += -multipliers_[j] * cj + 0.5 * rho_ * cj * cj;
    }
    return psi;
  }

  grad->assign(static_cast<std::size_t>(p.num_vars()), 0.0);
  double local[kMaxElementArity];
  double eg[kMaxElementArity];
  std::size_t snap = 0;

  // Objective: value + gradient + Hessian snapshot.
  double f = p.objective().constant;
  for (const LinearTerm& t : p.objective().linear) {
    f += t.coef * x[static_cast<std::size_t>(t.var)];
    (*grad)[static_cast<std::size_t>(t.var)] += t.coef;
  }
  for (const ElementRef& e : p.objective().elements) {
    const int n = e.fn->arity();
    for (int i = 0; i < n; ++i) local[i] = x[static_cast<std::size_t>(e.vars[i])];
    f += e.weight * e.fn->eval(local, eg, snapshots_[snap].hess);
    for (int i = 0; i < n; ++i) (*grad)[static_cast<std::size_t>(e.vars[i])] += e.weight * eg[i];
    snapshots_[snap].weight = e.weight;
    ++snap;
  }
  if (fault::hit(fault::kAuglagObjective)) f = std::numeric_limits<double>::quiet_NaN();
  if (!std::isfinite(f)) {
    throw EvalBreakdown(describe_group(p, p.objective(), "objective"));
  }

  // Phase 1 — per constraint: j owns c_[j], cgrad_val_[j] and its snapshot
  // slice [snap_offset_[j], ...). Element Hessians of constraint j enter
  // H_Psi with weight y_j = rho c_j - lambda_j.
  for (std::size_t j = 0; j < m; ++j) {
    const FunctionGroup& g = p.constraint(static_cast<int>(j));
    auto& vals = cgrad_val_[j];
    std::size_t vi = 0;
    double cj = g.constant;
    for (const LinearTerm& t : g.linear) {
      cj += t.coef * x[static_cast<std::size_t>(t.var)];
      vals[vi++] = t.coef;
    }
    std::size_t sj = snap_offset_[j];
    for (const ElementRef& e : g.elements) {
      const int n = e.fn->arity();
      for (int i = 0; i < n; ++i) local[i] = x[static_cast<std::size_t>(e.vars[i])];
      cj += e.weight * e.fn->eval(local, eg, snapshots_[sj].hess);
      for (int i = 0; i < n; ++i) vals[vi++] = e.weight * eg[i];
      ++sj;
    }
    c_[j] = cj;
    const double y = rho_ * cj - multipliers_[j];
    sj = snap_offset_[j];
    for (const ElementRef& e : g.elements) {
      snapshots_[sj].weight = y * e.weight;
      ++sj;
    }
  }

  if (fault::hit(fault::kAuglagConstraint) && m > 0) {
    c_[m / 2] = std::numeric_limits<double>::quiet_NaN();
  }

  // Phase 2 — ordered accumulation: grad Psi += y_j * grad c_j and the psi
  // fold run in ascending j. The scan doubles as the constraint tripwire: a
  // non-finite c_j (including the injected one above) is reported in
  // ascending-j order.
  double psi = f;
  for (std::size_t j = 0; j < m; ++j) {
    const double cj = c_[j];
    if (!std::isfinite(cj)) {
      throw EvalBreakdown(describe_group(p, p.constraint(static_cast<int>(j)),
                                         "constraint #" + std::to_string(j)));
    }
    const double y = rho_ * cj - multipliers_[j];
    const auto& idx = cgrad_idx_[j];
    const auto& vals = cgrad_val_[j];
    for (std::size_t k = 0; k < idx.size(); ++k) {
      (*grad)[static_cast<std::size_t>(idx[k])] += y * vals[k];
    }
    psi += -multipliers_[j] * cj + 0.5 * rho_ * cj * cj;
  }
  if (!std::isfinite(psi)) {
    throw EvalBreakdown("penalty Psi (rho=" + std::to_string(rho_) + ")");
  }
  for (std::size_t i = 0; i < grad->size(); ++i) {
    if (!std::isfinite((*grad)[i])) {
      throw EvalBreakdown("gradient entry " + p.var_name(static_cast<int>(i)));
    }
  }
  return psi;
}

namespace {

/// out = weight * (H vl) with H the packed symmetric element Hessian.
inline void packed_symmetric_matvec(const double* hess, int n, double weight, const double* vl,
                                    double* out) {
  for (int i = 0; i < n; ++i) out[i] = 0.0;
  for (int i = 0; i < n; ++i) {
    for (int j = i; j < n; ++j) {
      const double h = hess[packed_index(n, i, j)];
      out[i] += h * vl[j];
      if (j != i) out[j] += h * vl[i];
    }
  }
  for (int i = 0; i < n; ++i) out[i] *= weight;
}

}  // namespace

void AugLagModel::hess_vec(const std::vector<double>& v, std::vector<double>& hv) const {
  hv.assign(v.size(), 0.0);
  const std::size_t m = c_.size();
  double vl[kMaxElementArity];
  double out[kMaxElementArity];
  for (const ElementSnapshot& s : snapshots_) {
    if (s.weight == 0.0) continue;
    const int n = s.fn->arity();
    for (int i = 0; i < n; ++i) vl[i] = v[static_cast<std::size_t>(s.vars[i])];
    packed_symmetric_matvec(s.hess, n, s.weight, vl, out);
    for (int i = 0; i < n; ++i) hv[static_cast<std::size_t>(s.vars[i])] += out[i];
  }
  // Gauss-Newton term: rho * sum_j (grad c_j . v) grad c_j.
  for (std::size_t j = 0; j < m; ++j) {
    const auto& idx = cgrad_idx_[j];
    const auto& val = cgrad_val_[j];
    double dot = 0.0;
    for (std::size_t k = 0; k < idx.size(); ++k) dot += val[k] * v[static_cast<std::size_t>(idx[k])];
    const double scale = rho_ * dot;
    if (scale == 0.0) continue;
    for (std::size_t k = 0; k < idx.size(); ++k) {
      hv[static_cast<std::size_t>(idx[k])] += scale * val[k];
    }
  }
}

namespace {

/// Penalty schedule: rho grows tenfold per infeasible outer iteration, up to
/// a cap at which the solve reports kStalled.
constexpr double kRhoIncrease = 10.0;
constexpr double kMaxRho = 1e10;

/// Best-iterate checkpoint (DESIGN.md §9): the lexicographically best outer
/// iterate seen so far — least violation beyond the feasibility tolerance
/// first, then lowest objective. Restored only on the kTimeLimit /
/// kNumericalBreakdown paths, so every other status returns exactly what the
/// pre-resilience solver returned.
struct Checkpoint {
  std::vector<double> x;
  std::vector<double> multipliers;
  double objective = std::numeric_limits<double>::infinity();
  double cnorm = std::numeric_limits<double>::infinity();
  double projected_gradient = std::numeric_limits<double>::infinity();
  int outer = -1;
  bool valid = false;

  bool improves(double new_cnorm, double new_objective, double feas_tol) const {
    if (!valid) return true;
    const double v_new = std::max(0.0, new_cnorm - feas_tol);
    const double v_old = std::max(0.0, cnorm - feas_tol);
    if (v_new != v_old) return v_new < v_old;
    return new_objective < objective;
  }
};

}  // namespace

SolveResult solve_augmented_lagrangian(const Problem& problem, const AugLagOptions& options,
                                       const WarmStart& warm) {
  problem.validate();
  const int m = problem.num_constraints();
  OuterProblem outer{problem.lower(), problem.upper(), problem.start(), m,
                     [&problem](const std::vector<double>& x, std::vector<double>& c) {
                       problem.eval_constraints(x, c);
                       return problem.eval_objective(x);
                     }};
  AugLagModel model(problem, std::vector<double>(static_cast<std::size_t>(m), 0.0),
                    options.initial_rho);
  const InnerMinimizer tron = [&model, &problem](std::vector<double>& x,
                                                 const std::vector<double>& multipliers,
                                                 double rho, double tol, int max_iterations) {
    model.set_rho(rho);
    model.set_multipliers(multipliers);
    const TrustRegionResult r = minimize_bound_constrained(model, x, problem.lower(),
                                                           problem.upper(), {tol, max_iterations});
    return InnerResult{r.iterations, r.projected_gradient};
  };
  return solve_augmented_lagrangian(outer, tron, options, warm);
}

SolveResult solve_augmented_lagrangian(const OuterProblem& problem, const InnerMinimizer& minimize,
                                       const AugLagOptions& options, const WarmStart& warm) {
  const int m = problem.num_constraints;
  const std::size_t n = problem.lower.size();
  if (!warm.x.empty() && warm.x.size() != n) {
    throw std::invalid_argument("solve_augmented_lagrangian: warm start x has " +
                                std::to_string(warm.x.size()) + " entries but the problem has " +
                                std::to_string(n) + " variables");
  }
  if (!warm.multipliers.empty() && static_cast<int>(warm.multipliers.size()) != m) {
    throw std::invalid_argument("solve_augmented_lagrangian: warm start carries " +
                                std::to_string(warm.multipliers.size()) +
                                " multipliers but the problem has " + std::to_string(m) +
                                " constraints");
  }
  for (std::size_t j = 0; j < warm.multipliers.size(); ++j) {
    if (!std::isfinite(warm.multipliers[j])) {
      throw std::invalid_argument("solve_augmented_lagrangian: warm start multiplier #" +
                                  std::to_string(j) + " is not finite");
    }
  }
  if (!std::isfinite(warm.rho)) {
    throw std::invalid_argument("solve_augmented_lagrangian: warm start rho is not finite");
  }

  SolveResult result;
  result.x = warm.x.empty() ? problem.start : warm.x;
  for (std::size_t i = 0; i < n; ++i) {
    result.x[i] = std::clamp(result.x[i], problem.lower[i], problem.upper[i]);
  }
  if (warm.multipliers.empty()) {
    result.multipliers.assign(static_cast<std::size_t>(m), 0.0);
  } else {
    result.multipliers = warm.multipliers;
  }
  const std::vector<double> x_start = result.x;

  double rho = warm.rho > 0.0 ? std::min(warm.rho, kMaxRho) : options.initial_rho;
  double eta = 1.0 / std::pow(rho, 0.1);
  // Inner tolerance. With no constraint the one inner solve runs at the final
  // tolerance. Warm multipliers come from a converged solve of a nearby
  // problem, so the inner solves start at the floor: a loose first solve
  // would only wander off the old optimum and have to walk back.
  double omega = m == 0                      ? options.optimality_tol
                 : warm.multipliers.empty() ? 1.0 / rho
                                            : 0.1 * options.optimality_tol;

  // f and ||c||_inf at x, into result.objective and the return value.
  std::vector<double> c;
  auto score = [&](const std::vector<double>& x) {
    result.objective = problem.eval(x, c);
    double worst = 0.0;
    for (double cj : c) worst = std::max(worst, std::abs(cj));
    return worst;
  };
  Checkpoint ckpt;

  // Graceful degradation: map a deadline/cancel or a numerical tripwire to a
  // result built from the best checkpoint instead of letting the exception
  // escape the solve entry point.
  auto degrade = [&](SolveStatus status, const std::string& site) {
    result.status = status;
    result.breakdown_site = site;
    result.from_checkpoint = true;
    result.checkpoint_outer = ckpt.outer;
    if (ckpt.valid) {
      result.x = ckpt.x;
      result.multipliers = ckpt.multipliers;
      result.objective = ckpt.objective;
      result.constraint_violation = ckpt.cnorm;
      result.projected_gradient = ckpt.projected_gradient;
    } else {
      // Nothing completed an outer iteration. Without constraints every
      // iterate is feasible and the inner minimizer left its last accepted
      // one in x; otherwise fall back to the clamped start point. Scoring it
      // may itself trip the deadline or a tripwire — in that case keep the
      // zeros rather than propagate.
      if (m > 0) result.x = x_start;
      result.multipliers.assign(static_cast<std::size_t>(m), 0.0);
      try {
        result.constraint_violation = score(result.x);
      } catch (...) {  // NOLINT(bugprone-empty-catch)
      }
    }
    result.final_rho = rho;
    return result;
  };

  double prev_objective = std::numeric_limits<double>::infinity();
  int stagnant_outers = 0;
  try {
  for (int outer = 0; outer < options.max_outer_iterations; ++outer) {
    runtime::poll_cancel();
    if (fault::hit(fault::kAuglagOuter)) {
      throw runtime::OperationCancelled(runtime::CancelReason::kDeadline,
                                        "injected fault: auglag.outer");
    }
    result.outer_iterations = outer + 1;

    const InnerResult inner =
        minimize(result.x, result.multipliers, rho, std::max(omega, 0.1 * options.optimality_tol),
                 options.max_inner_iterations);
    result.inner_iterations += inner.iterations;
    result.projected_gradient = inner.projected_gradient;

    // Re-evaluate at the final iterate: an inner minimizer's cached values
    // can predate its final trial-point acceptance.
    const double cnorm = score(result.x);
    result.constraint_violation = cnorm;
    result.final_rho = rho;
    if (options.verbose) {
      std::printf("[auglag] outer=%d rho=%.1e f=%.6g ||c||=%.3e pg=%.3e inner_it=%d\n", outer,
                  rho, result.objective, cnorm, inner.projected_gradient, inner.iterations);
    }

    if (std::isfinite(result.objective) && std::isfinite(cnorm) &&
        ckpt.improves(cnorm, result.objective, options.feasibility_tol)) {
      ckpt.x = result.x;
      ckpt.multipliers = result.multipliers;
      ckpt.objective = result.objective;
      ckpt.cnorm = cnorm;
      ckpt.projected_gradient = inner.projected_gradient;
      ckpt.outer = outer;
      ckpt.valid = true;
    }

    if (m == 0) {
      result.status = inner.projected_gradient <= options.optimality_tol
                          ? SolveStatus::kConverged
                          : SolveStatus::kMaxIterations;
      return result;
    }
    if (cnorm <= std::max(eta, options.feasibility_tol)) {
      if (cnorm <= options.feasibility_tol &&
          inner.projected_gradient <= options.optimality_tol) {
        result.status = SolveStatus::kConverged;
        return result;
      }
      // Feasible objective stagnation: the iterate sits at the optimum but the
      // inner solver cannot certify stationarity (ill-conditioned curvature at
      // active bounds). Burn no more budget — report "acceptable".
      if (cnorm <= options.feasibility_tol &&
          std::abs(result.objective - prev_objective) <=
              1e-6 * (1.0 + std::abs(result.objective))) {
        if (++stagnant_outers >= 3) {
          result.status = SolveStatus::kAcceptable;
          return result;
        }
      } else {
        stagnant_outers = 0;
      }
      prev_objective = result.objective;
      // First-order multiplier update; tighten both tolerances.
      for (int j = 0; j < m; ++j) {
        result.multipliers[static_cast<std::size_t>(j)] -= rho * c[static_cast<std::size_t>(j)];
      }
      eta = std::max(eta / std::pow(rho, 0.9), 0.1 * options.feasibility_tol);
      omega = std::max(omega / rho, 0.1 * options.optimality_tol);
    } else {
      if (rho >= kMaxRho) {
        result.status = SolveStatus::kStalled;
        return result;
      }
      rho = std::min(rho * kRhoIncrease, kMaxRho);
      eta = 1.0 / std::pow(rho, 0.1);
      omega = std::max(1.0 / rho, 0.1 * options.optimality_tol);
    }
  }
  } catch (const runtime::OperationCancelled&) {
    return degrade(SolveStatus::kTimeLimit, "");
  } catch (const EvalBreakdown& e) {
    return degrade(SolveStatus::kNumericalBreakdown, e.site());
  }
  result.status = SolveStatus::kMaxIterations;
  return result;
}

}  // namespace statsize::nlp
