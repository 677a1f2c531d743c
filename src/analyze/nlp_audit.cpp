#include "analyze/nlp_audit.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "nlp/element.h"

namespace statsize::analyze {

namespace {

/// NLP006 fires when the estimated objective scale and the median constraint
/// scale differ by more than this factor (either direction).
constexpr double kScaleRatioThreshold = 1e6;
/// NLP006 also fires when the constraint scales themselves spread wider than
/// this factor (best- vs worst-scaled constraint).
constexpr double kConstraintSpreadThreshold = 1e8;

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

std::string var_locus(const nlp::Problem& problem, int var) {
  const std::string& name = problem.var_name(var);
  if (name.empty()) return "variable #" + std::to_string(var);
  return "variable '" + name + "' (#" + std::to_string(var) + ")";
}

/// Typical magnitude of variable `i`: the bound box where finite, the start
/// value otherwise, floored at 1 so a [0, 0.01] box does not zero out a
/// coefficient's contribution to the scale estimate.
double typical_magnitude(const nlp::Problem& problem, int i) {
  const std::size_t k = static_cast<std::size_t>(i);
  const double lo = problem.lower()[k];
  const double hi = problem.upper()[k];
  double mag = 0.0;
  if (std::isfinite(lo)) mag = std::max(mag, std::abs(lo));
  if (std::isfinite(hi)) mag = std::max(mag, std::abs(hi));
  if (mag == 0.0 && std::isfinite(problem.start()[k])) mag = std::abs(problem.start()[k]);
  return std::max(mag, 1.0);
}

/// Walks every group of the problem: the objective (index -1) then each
/// constraint j. fn(j, group).
template <class Fn>
void for_each_group(const nlp::Problem& problem, Fn&& fn) {
  fn(-1, problem.objective());
  for (int j = 0; j < problem.num_constraints(); ++j) fn(j, problem.constraint(j));
}

std::string group_locus(std::string_view what, int j) {
  if (j < 0) return std::string(what) + ", objective";
  return std::string(what) + ", constraint #" + std::to_string(j);
}

}  // namespace

double estimate_group_scale(const nlp::Problem& problem, const nlp::FunctionGroup& group) {
  double scale = std::abs(group.constant);
  for (const nlp::LinearTerm& t : group.linear) {
    if (t.var >= 0 && t.var < problem.num_vars()) {
      scale = std::max(scale, std::abs(t.coef) * typical_magnitude(problem, t.var));
    }
  }
  for (const nlp::ElementRef& e : group.elements) {
    scale = std::max(scale, std::abs(e.weight));
  }
  return scale;
}

Report audit_nlp_problem(const nlp::Problem& problem, std::string_view what) {
  Report report;
  const int n = problem.num_vars();

  // NLP001 / NLP002: bound-box geometry.
  for (int i = 0; i < n; ++i) {
    const double lo = problem.lower()[static_cast<std::size_t>(i)];
    const double hi = problem.upper()[static_cast<std::size_t>(i)];
    if (lo > hi || std::isnan(lo) || std::isnan(hi)) {
      report.add("NLP001", std::string(what) + ": " + var_locus(problem, i),
                 "bound box [" + fmt(lo) + ", " + fmt(hi) + "] is empty",
                 "check the builder: the box must satisfy lower <= upper");
    } else if (lo == hi) {
      report.add("NLP002", std::string(what) + ": " + var_locus(problem, i),
                 "bounds coincide at " + fmt(lo) + " (the variable is a constant)",
                 "fold the constant into the groups that reference it");
    }
  }

  // Reference census: which variables appear anywhere, element arities,
  // constant constraints — one walk over every group.
  std::vector<char> referenced(static_cast<std::size_t>(n), 0);
  for_each_group(problem, [&](int j, const nlp::FunctionGroup& group) {
    for (const nlp::LinearTerm& t : group.linear) {
      if (t.var >= 0 && t.var < n) referenced[static_cast<std::size_t>(t.var)] = 1;
    }
    for (std::size_t e = 0; e < group.elements.size(); ++e) {
      const nlp::ElementRef& ref = group.elements[e];
      for (const int v : ref.vars) {
        if (v >= 0 && v < n) referenced[static_cast<std::size_t>(v)] = 1;
      }
      if (ref.fn == nullptr) continue;  // Problem::validate()'s finding, not ours
      const int arity = ref.fn->arity();
      if (arity >= nlp::kMaxElementArity) {
        Diagnostic d;
        d.id = "NLP004";
        d.severity = arity > nlp::kMaxElementArity ? Severity::kError : Severity::kWarning;
        d.locus = group_locus(what, j) + ", element #" + std::to_string(e);
        d.message = "element arity " + std::to_string(arity) +
                    (arity > nlp::kMaxElementArity ? " exceeds" : " sits at") +
                    " kMaxElementArity = " + std::to_string(nlp::kMaxElementArity);
        d.hint = "split the element (e.g. a max tree) before the arity grows further";
        report.add(std::move(d));
      }
    }
    if (j >= 0 && group.linear.empty() && group.elements.empty()) {
      Diagnostic d;
      d.id = "NLP005";
      d.severity = group.constant != 0.0 ? Severity::kError : Severity::kWarning;
      d.locus = group_locus(what, j);
      d.message = group.constant != 0.0
                      ? "constraint is the constant " + fmt(group.constant) +
                            " = 0: infeasible by construction"
                      : "constraint references no variables (0 = 0): dead weight";
      d.hint = "remove the constraint or wire its intended variables";
      report.add(std::move(d));
    }
  });

  // NLP003: orphan variables.
  for (int i = 0; i < n; ++i) {
    if (!referenced[static_cast<std::size_t>(i)]) {
      report.add("NLP003", std::string(what) + ": " + var_locus(problem, i),
                 "appears in no objective or constraint term",
                 "the solver will return an arbitrary value inside its bounds");
    }
  }

  // NLP006: magnitude-scale estimates, objective vs constraints and the
  // constraint spread itself.
  if (problem.num_constraints() > 0) {
    const double obj_scale = std::max(estimate_group_scale(problem, problem.objective()), 1e-300);
    std::vector<double> cons_scales;
    cons_scales.reserve(static_cast<std::size_t>(problem.num_constraints()));
    for (int j = 0; j < problem.num_constraints(); ++j) {
      cons_scales.push_back(std::max(estimate_group_scale(problem, problem.constraint(j)), 1e-300));
    }
    std::vector<double> sorted = cons_scales;
    std::sort(sorted.begin(), sorted.end());
    const double median = sorted[sorted.size() / 2];
    const double ratio = obj_scale > median ? obj_scale / median : median / obj_scale;
    if (ratio > kScaleRatioThreshold) {
      report.add("NLP006", std::string(what) + ": objective vs constraints",
                 "estimated objective scale " + fmt(obj_scale) +
                     " vs median constraint scale " + fmt(median) + " (ratio " + fmt(ratio) + ")",
                 "rescale the objective or constraints toward a common magnitude");
    }
    const double spread = sorted.back() / sorted.front();
    if (spread > kConstraintSpreadThreshold) {
      const auto worst = std::max_element(cons_scales.begin(), cons_scales.end());
      const auto best = std::min_element(cons_scales.begin(), cons_scales.end());
      report.add("NLP006",
                 std::string(what) + ": constraint #" +
                     std::to_string(best - cons_scales.begin()) + " vs constraint #" +
                     std::to_string(worst - cons_scales.begin()),
                 "constraint scales spread by a factor " + fmt(spread) + " (" +
                     fmt(sorted.front()) + " .. " + fmt(sorted.back()) + ")",
                 "a single penalty rho cannot serve both ends of this range");
    }
  }

  // NLP007: duplicate variable loci (two variables with one name).
  {
    std::map<std::string, int> first_use;
    for (int i = 0; i < n; ++i) {
      const std::string& name = problem.var_names()[static_cast<std::size_t>(i)];
      if (name.empty()) continue;
      const auto [it, inserted] = first_use.emplace(name, i);
      if (!inserted) {
        report.add("NLP007", std::string(what) + ": " + var_locus(problem, i),
                   "shares name '" + name + "' with variable #" + std::to_string(it->second),
                   "rename one so diagnostics and size tables stay unambiguous");
      }
    }
  }

  report.sort();
  return report;
}

Report audit_auglag_state(const nlp::AugLagModel& model, std::string_view what) {
  Report report;
  if (!(model.rho() > 0.0) || !std::isfinite(model.rho())) {
    report.add("NLP008", std::string(what) + ": penalty rho",
               "rho = " + fmt(model.rho()) + " (must be a positive finite value)");
  }
  const std::vector<double>& mult = model.multipliers();
  for (std::size_t j = 0; j < mult.size(); ++j) {
    if (!std::isfinite(mult[j])) {
      report.add("NLP008", std::string(what) + ": multiplier #" + std::to_string(j),
                 "lambda = " + fmt(mult[j]) + " is not finite",
                 "a NaN multiplier poisons every Psi evaluation; reset the outer loop state");
    }
  }
  report.sort();
  return report;
}

}  // namespace statsize::analyze
