// Bound-constrained equality-constrained NLP in LANCELOT's canonical shape:
//
//   minimize   f(x)
//   subject to c_j(x) = 0          (j = 1..m, each a FunctionGroup)
//              l <= x <= u
//
// Inequalities are accommodated the way LANCELOT does it: by adding a bounded
// slack variable and turning g(x) <= b into g(x) + s - b = 0 with s >= 0
// (add_inequality below). The paper's delay constraints (mu + k sigma <= D)
// enter the sizing formulation through exactly this mechanism.

#pragma once

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "nlp/element.h"

namespace statsize::nlp {

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

class Problem {
 public:
  /// Adds a variable with bounds and initial value; returns its index.
  int add_variable(double lower, double upper, double start, std::string name = {});

  int num_vars() const { return static_cast<int>(lower_.size()); }
  int num_constraints() const { return static_cast<int>(constraints_.size()); }

  const std::vector<double>& lower() const { return lower_; }
  const std::vector<double>& upper() const { return upper_; }
  const std::vector<double>& start() const { return start_; }
  const std::string& var_name(int i) const { return names_.at(static_cast<std::size_t>(i)); }
  /// All variable names in index order ("" where none was given) — whole-
  /// vector introspection for the pre-solve audit (analyze/nlp_audit.h).
  const std::vector<std::string>& var_names() const { return names_; }
  /// Number of element functions this problem owns (introspection only;
  /// groups may additionally reference externally-owned elements).
  int num_owned_elements() const { return static_cast<int>(owned_.size()); }
  void set_start(int var, double value) { start_.at(static_cast<std::size_t>(var)) = value; }

  /// Takes ownership of an element function; the returned pointer stays valid
  /// for the lifetime of the Problem and can be shared by many ElementRefs.
  const ElementFunction* own(std::unique_ptr<ElementFunction> fn);

  void set_objective(FunctionGroup objective) { objective_ = std::move(objective); }
  const FunctionGroup& objective() const { return objective_; }

  /// Adds the equality constraint g(x) = 0; returns the constraint index.
  int add_equality(FunctionGroup group);

  /// Adds g(x) <= bound via a slack: g(x) + s - bound = 0, s in [0, inf).
  /// Returns the constraint index; `slack_start` seeds s (clamped to >= 0).
  int add_inequality(FunctionGroup group, double bound, double slack_start = 0.0);

  const FunctionGroup& constraint(int j) const {
    return constraints_.at(static_cast<std::size_t>(j));
  }

  /// Validates index ranges and arities; throws std::runtime_error on error.
  void validate() const;

  double eval_objective(const std::vector<double>& x) const { return objective_.eval(x); }
  void eval_constraints(const std::vector<double>& x, std::vector<double>& c) const;
  double max_constraint_violation(const std::vector<double>& x) const;

 private:
  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<double> start_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<ElementFunction>> owned_;
  FunctionGroup objective_;
  std::vector<FunctionGroup> constraints_;
};

// ---------------------------------------------------------------------------
// Stock element functions (shared by tests and the sizing formulation).
// ---------------------------------------------------------------------------

/// f(x, y) = x * y.
class ProductElement final : public ElementFunction {
 public:
  int arity() const override { return 2; }
  double eval(const double* x, double* grad, double* hess) const override;
};

/// f(x) = x^2.
class SquareElement final : public ElementFunction {
 public:
  int arity() const override { return 1; }
  double eval(const double* x, double* grad, double* hess) const override;
};

/// f(x) = sqrt(x) for x >= floor, extended linearly (C^1) below the floor.
///
/// Used to express mu + k * sigma as mu + k * sqrt(var) without a separate
/// sigma variable: the alternative coupling constraint sigma^2 = var has a
/// spurious first-order trap at sigma = 0. The linear extension matters too:
/// sqrt's unbounded derivative at 0 otherwise gives the optimizer an infinite
/// incentive to crash the variance variable into 0 against its defining
/// constraints, which augmented-Lagrangian iterations fight for thousands of
/// iterations. Callers pick a floor safely below any physically attainable
/// value (e.g. a tenth of the build-time variance), so the extension is never
/// active at a converged point — and if it were, the true objective recomputed
/// by SSTA at the final sizes would expose the distortion.
class SqrtElement final : public ElementFunction {
 public:
  explicit SqrtElement(double floor = 1e-12) : floor_(floor < 1e-12 ? 1e-12 : floor) {}
  int arity() const override { return 1; }
  double eval(const double* x, double* grad, double* hess) const override;

 private:
  double floor_;
};

}  // namespace statsize::nlp
