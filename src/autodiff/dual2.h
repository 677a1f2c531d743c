// Second-order forward-mode automatic differentiation.
//
// Dual2<N> carries a function value, its gradient with respect to N seed
// variables, and the full (symmetric, packed) Hessian. Propagation through
// arithmetic is exact — there is no truncation error, unlike finite
// differences — so Dual2 serves both as the runtime engine for the Clark-max
// Hessians needed by the NLP solver (the paper requires analytic second
// derivatives for LANCELOT-class methods) and as the oracle that the
// hand-derived gradient formulas are tested against.
//
// The Hessian is stored as the upper triangle in row-major packed order:
// (0,0),(0,1),...,(0,N-1),(1,1),...,(N-1,N-1).

#pragma once

#include <array>
#include <cassert>
#include <cmath>
#include <cstddef>

namespace statsize::autodiff {

template <int N>
class Dual2 {
 public:
  static constexpr int kNumVars = N;
  static constexpr int kHessSize = N * (N + 1) / 2;

  constexpr Dual2() = default;

  // Implicit promotion from a plain constant keeps generic code readable
  // (e.g. `x + 1.0` inside a templated evaluator).
  constexpr Dual2(double value) : v_(value) {}  // NOLINT(google-explicit-constructor)

  /// Seeds variable `index` (0-based) with value `value`.
  static Dual2 variable(double value, int index) {
    assert(index >= 0 && index < N);
    Dual2 d(value);
    d.g_[static_cast<std::size_t>(index)] = 1.0;
    return d;
  }

  static constexpr Dual2 constant(double value) { return Dual2(value); }

  /// Packed index of Hessian entry (i, j); order of i and j is irrelevant.
  static constexpr int hess_index(int i, int j) {
    if (i > j) std::swap(i, j);
    return i * N - i * (i - 1) / 2 + (j - i);
  }

  double value() const { return v_; }
  double grad(int i) const { return g_[static_cast<std::size_t>(i)]; }
  double hess(int i, int j) const { return h_[static_cast<std::size_t>(hess_index(i, j))]; }
  const std::array<double, N>& grad_array() const { return g_; }
  const std::array<double, kHessSize>& hess_array() const { return h_; }

  Dual2 operator-() const {
    Dual2 r;
    r.v_ = -v_;
    for (int i = 0; i < N; ++i) r.g_[i] = -g_[i];
    for (int k = 0; k < kHessSize; ++k) r.h_[k] = -h_[k];
    return r;
  }

  Dual2& operator+=(const Dual2& o) {
    v_ += o.v_;
    for (int i = 0; i < N; ++i) g_[i] += o.g_[i];
    for (int k = 0; k < kHessSize; ++k) h_[k] += o.h_[k];
    return *this;
  }
  Dual2& operator-=(const Dual2& o) {
    v_ -= o.v_;
    for (int i = 0; i < N; ++i) g_[i] -= o.g_[i];
    for (int k = 0; k < kHessSize; ++k) h_[k] -= o.h_[k];
    return *this;
  }
  Dual2& operator*=(const Dual2& o) { return *this = *this * o; }
  Dual2& operator/=(const Dual2& o) { return *this = *this / o; }

  friend Dual2 operator+(Dual2 a, const Dual2& b) { return a += b; }
  friend Dual2 operator-(Dual2 a, const Dual2& b) { return a -= b; }

  friend Dual2 operator*(const Dual2& a, const Dual2& b) {
    Dual2 r;
    r.v_ = a.v_ * b.v_;
    for (int i = 0; i < N; ++i) r.g_[i] = a.v_ * b.g_[i] + b.v_ * a.g_[i];
    int k = 0;
    for (int i = 0; i < N; ++i) {
      for (int j = i; j < N; ++j, ++k) {
        r.h_[k] = a.v_ * b.h_[k] + b.v_ * a.h_[k] + a.g_[i] * b.g_[j] + a.g_[j] * b.g_[i];
      }
    }
    return r;
  }

  friend Dual2 operator/(const Dual2& a, const Dual2& b) {
    const double inv = 1.0 / b.v_;
    Dual2 r = a * apply_unary(b, inv, -inv * inv, 2.0 * inv * inv * inv);
    r.v_ = a.v_ / b.v_;  // the rounded quotient, so values match double code
    return r;
  }

  friend bool operator<(const Dual2& a, const Dual2& b) { return a.v_ < b.v_; }
  friend bool operator>(const Dual2& a, const Dual2& b) { return a.v_ > b.v_; }
  friend bool operator<=(const Dual2& a, const Dual2& b) { return a.v_ <= b.v_; }
  friend bool operator>=(const Dual2& a, const Dual2& b) { return a.v_ >= b.v_; }

  /// Chain rule for a unary function with precomputed f(v), f'(v), f''(v):
  ///   grad  = f' * g
  ///   hess  = f' * h + f'' * (g ⊗ g)
  static Dual2 apply_unary(const Dual2& x, double f, double fp, double fpp) {
    Dual2 r;
    r.v_ = f;
    for (int i = 0; i < N; ++i) r.g_[i] = fp * x.g_[i];
    int k = 0;
    for (int i = 0; i < N; ++i) {
      for (int j = i; j < N; ++j, ++k) {
        r.h_[k] = fp * x.h_[k] + fpp * x.g_[i] * x.g_[j];
      }
    }
    return r;
  }

 private:
  double v_ = 0.0;
  std::array<double, N> g_{};
  std::array<double, kHessSize> h_{};
};

template <int N>
Dual2<N> sqrt(const Dual2<N>& x) {
  const double s = std::sqrt(x.value());
  return Dual2<N>::apply_unary(x, s, 0.5 / s, -0.25 / (s * x.value()));
}

template <int N>
Dual2<N> exp(const Dual2<N>& x) {
  const double e = std::exp(x.value());
  return Dual2<N>::apply_unary(x, e, e, e);
}

template <int N>
Dual2<N> log(const Dual2<N>& x) {
  const double inv = 1.0 / x.value();
  return Dual2<N>::apply_unary(x, std::log(x.value()), inv, -inv * inv);
}

}  // namespace statsize::autodiff
