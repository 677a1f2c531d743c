#include "nlp/problem.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace statsize::nlp {

double FunctionGroup::eval(const std::vector<double>& x) const {
  double v = constant;
  for (const LinearTerm& t : linear) v += t.coef * x[static_cast<std::size_t>(t.var)];
  double local[kMaxElementArity];
  for (const ElementRef& e : elements) {
    const int n = e.fn->arity();
    for (int i = 0; i < n; ++i) local[i] = x[static_cast<std::size_t>(e.vars[i])];
    v += e.weight * e.fn->eval(local, nullptr, nullptr);
  }
  return v;
}

void FunctionGroup::accumulate_grad(const std::vector<double>& x, double scale,
                                    std::vector<double>& grad) const {
  for (const LinearTerm& t : linear) grad[static_cast<std::size_t>(t.var)] += scale * t.coef;
  double local[kMaxElementArity];
  double g[kMaxElementArity];
  for (const ElementRef& e : elements) {
    const int n = e.fn->arity();
    for (int i = 0; i < n; ++i) local[i] = x[static_cast<std::size_t>(e.vars[i])];
    e.fn->eval(local, g, nullptr);
    for (int i = 0; i < n; ++i) {
      grad[static_cast<std::size_t>(e.vars[i])] += scale * e.weight * g[i];
    }
  }
}

int Problem::add_variable(double lower, double upper, double start, std::string name) {
  if (lower > upper) throw std::invalid_argument("variable bounds inverted");
  lower_.push_back(lower);
  upper_.push_back(upper);
  start_.push_back(std::clamp(start, lower, upper));
  names_.push_back(name.empty() ? "x" + std::to_string(lower_.size() - 1) : std::move(name));
  return num_vars() - 1;
}

const ElementFunction* Problem::own(std::unique_ptr<ElementFunction> fn) {
  if (fn->arity() > kMaxElementArity) {
    throw std::invalid_argument("element arity " + std::to_string(fn->arity()) +
                                " exceeds the supported maximum of " +
                                std::to_string(kMaxElementArity));
  }
  owned_.push_back(std::move(fn));
  return owned_.back().get();
}

int Problem::add_equality(FunctionGroup group) {
  constraints_.push_back(std::move(group));
  return num_constraints() - 1;
}

int Problem::add_inequality(FunctionGroup group, double bound, double slack_start) {
  const int slack = add_variable(0.0, kInfinity, std::max(0.0, slack_start), "slack");
  group.constant -= bound;
  group.linear.push_back({slack, 1.0});
  return add_equality(std::move(group));
}

namespace {

void validate_group(const FunctionGroup& g, int num_vars, const std::string& what) {
  for (const LinearTerm& t : g.linear) {
    if (t.var < 0 || t.var >= num_vars) {
      throw std::runtime_error(what + ": linear term variable out of range");
    }
  }
  for (std::size_t k = 0; k < g.elements.size(); ++k) {
    const ElementRef& e = g.elements[k];
    if (e.fn == nullptr) throw std::runtime_error(what + ": null element");
    // Evaluation paths stage element locals in kMaxElementArity-sized stack
    // buffers; a larger element would overflow them, so it is a hard error
    // here — before any evaluation can touch a buffer.
    if (e.fn->arity() > kMaxElementArity) {
      throw std::runtime_error(what + ": element #" + std::to_string(k) + " has arity " +
                               std::to_string(e.fn->arity()) + ", which exceeds the supported "
                               "maximum of " + std::to_string(kMaxElementArity));
    }
    if (static_cast<int>(e.vars.size()) != e.fn->arity()) {
      throw std::runtime_error(what + ": element variable count != arity");
    }
    for (int v : e.vars) {
      if (v < 0 || v >= num_vars) {
        throw std::runtime_error(what + ": element variable out of range");
      }
    }
  }
}

}  // namespace

void Problem::validate() const {
  validate_group(objective_, num_vars(), "objective");
  for (std::size_t j = 0; j < constraints_.size(); ++j) {
    validate_group(constraints_[j], num_vars(), "constraint #" + std::to_string(j));
  }
}

void Problem::eval_constraints(const std::vector<double>& x, std::vector<double>& c) const {
  c.resize(constraints_.size());
  for (std::size_t j = 0; j < constraints_.size(); ++j) c[j] = constraints_[j].eval(x);
}

double Problem::max_constraint_violation(const std::vector<double>& x) const {
  double worst = 0.0;
  for (const FunctionGroup& g : constraints_) worst = std::max(worst, std::abs(g.eval(x)));
  return worst;
}

double ProductElement::eval(const double* x, double* grad, double* hess) const {
  if (grad != nullptr) {
    grad[0] = x[1];
    grad[1] = x[0];
  }
  if (hess != nullptr) {
    hess[packed_index(2, 0, 0)] = 0.0;
    hess[packed_index(2, 0, 1)] = 1.0;
    hess[packed_index(2, 1, 1)] = 0.0;
  }
  return x[0] * x[1];
}

double SquareElement::eval(const double* x, double* grad, double* hess) const {
  if (grad != nullptr) grad[0] = 2.0 * x[0];
  if (hess != nullptr) hess[0] = 2.0;
  return x[0] * x[0];
}

double SqrtElement::eval(const double* x, double* grad, double* hess) const {
  if (x[0] < floor_) {
    // C^1 linear extension: value and slope match sqrt at the floor.
    const double s0 = std::sqrt(floor_);
    const double slope = 0.5 / s0;
    if (grad != nullptr) grad[0] = slope;
    if (hess != nullptr) hess[0] = 0.0;
    return s0 + slope * (x[0] - floor_);
  }
  const double s = std::sqrt(x[0]);
  if (grad != nullptr) grad[0] = 0.5 / s;
  if (hess != nullptr) hess[0] = -0.25 / (s * x[0]);
  return s;
}

}  // namespace statsize::nlp
