#include "core/clark_element.h"

#include <stdexcept>

namespace statsize::core {

ClarkElement::ClarkElement(Output output, std::array<double, 4> fixed)
    : output_(output), fixed_(fixed) {
  for (int s = 0; s < 4; ++s) {
    if (std::isnan(fixed_[static_cast<std::size_t>(s)])) {
      slot_of_local_[static_cast<std::size_t>(arity_++)] = s;
    }
  }
}

double ClarkElement::eval(const double* x, double* grad, double* hess) const {
  double full[4];
  for (int s = 0; s < 4; ++s) full[s] = fixed_[static_cast<std::size_t>(s)];
  for (int i = 0; i < arity_; ++i) full[slot_of_local_[static_cast<std::size_t>(i)]] = x[i];
  const stat::NormalRV a{full[0], full[2]};
  const stat::NormalRV b{full[1], full[3]};

  if (grad == nullptr && hess == nullptr) {
    const stat::NormalRV c = stat::clark_max(a, b);
    return output_ == Output::kMu ? c.mu : c.var;
  }

  stat::ClarkGrad cg;
  stat::ClarkHess ch;
  stat::NormalRV c;
  if (hess != nullptr) {
    c = stat::clark_max_full(a, b, cg, ch);
  } else {
    c = stat::clark_max_grad(a, b, cg);
  }
  const std::array<double, 4>& g4 = output_ == Output::kMu ? cg.dmu : cg.dvar;
  if (grad != nullptr) {
    for (int i = 0; i < arity_; ++i) grad[i] = g4[slot_of_local_[static_cast<std::size_t>(i)]];
  }
  if (hess != nullptr) {
    const std::array<double, 10>& h4 = output_ == Output::kMu ? ch.mu : ch.var;
    for (int i = 0; i < arity_; ++i) {
      for (int j = i; j < arity_; ++j) {
        hess[nlp::packed_index(arity_, i, j)] =
            h4[static_cast<std::size_t>(autodiff::Dual2<4>::hess_index(
                slot_of_local_[static_cast<std::size_t>(i)],
                slot_of_local_[static_cast<std::size_t>(j)]))];
      }
    }
  }
  return output_ == Output::kMu ? c.mu : c.var;
}

NaryClarkElement::NaryClarkElement(ClarkElement::Output output, int num_operands,
                                   bool has_const_init, stat::NormalRV const_init)
    : output_(output),
      num_operands_(num_operands),
      has_const_init_(has_const_init),
      const_init_(const_init) {
  if (num_operands < 1 || num_operands > kMaxOperands) {
    throw std::invalid_argument("NaryClarkElement supports 1..4 operands");
  }
}

template <int M>
double NaryClarkElement::eval_impl(const double* x, double* grad, double* hess) const {
  if (grad == nullptr && hess == nullptr) {
    // Value-only fast path: plain pairwise fold.
    stat::NormalRV acc =
        has_const_init_ ? const_init_ : stat::NormalRV{x[0], x[M]};
    for (int i = has_const_init_ ? 0 : 1; i < M; ++i) {
      acc = stat::clark_max(acc, {x[i], x[M + i]});
    }
    return output_ == ClarkElement::Output::kMu ? acc.mu : acc.var;
  }

  using D = autodiff::Dual2<2 * M>;
  D mu_acc;
  D var_acc;
  int first = 0;
  if (has_const_init_) {
    mu_acc = D::constant(const_init_.mu);
    var_acc = D::constant(const_init_.var);
  } else {
    mu_acc = D::variable(x[0], 0);
    var_acc = D::variable(x[M], M);
    first = 1;
  }
  for (int i = first; i < M; ++i) {
    const D mu_b = D::variable(x[i], i);
    const D var_b = D::variable(x[M + i], M + i);
    D mu_out;
    D var_out;
    stat::clark_max_dual(mu_acc, mu_b, var_acc, var_b, mu_out, var_out);
    mu_acc = mu_out;
    var_acc = var_out;
  }
  const D& out = output_ == ClarkElement::Output::kMu ? mu_acc : var_acc;
  if (grad != nullptr) {
    for (int i = 0; i < 2 * M; ++i) grad[i] = out.grad(i);
  }
  if (hess != nullptr) {
    for (int i = 0; i < 2 * M; ++i) {
      for (int j = i; j < 2 * M; ++j) {
        hess[nlp::packed_index(2 * M, i, j)] = out.hess(i, j);
      }
    }
  }
  return out.value();
}

double NaryClarkElement::eval(const double* x, double* grad, double* hess) const {
  switch (num_operands_) {
    case 1: return eval_impl<1>(x, grad, hess);
    case 2: return eval_impl<2>(x, grad, hess);
    case 3: return eval_impl<3>(x, grad, hess);
    default: return eval_impl<4>(x, grad, hess);
  }
}

}  // namespace statsize::core
