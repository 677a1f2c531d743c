#include "nlp/projected_lbfgs.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "runtime/cancel.h"

namespace statsize::nlp {

namespace {

constexpr std::size_t kHistory = 10;  ///< curvature pairs kept
constexpr double kMinStep = 1e-14;

double clamp_to_box(double v, double lo, double hi) { return std::min(std::max(v, lo), hi); }

double pg_norm(const std::vector<double>& x, const std::vector<double>& g,
               const std::vector<double>& lo, const std::vector<double>& hi) {
  double worst = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    worst = std::max(worst, std::abs(clamp_to_box(x[i] - g[i], lo[i], hi[i]) - x[i]));
  }
  return worst;
}

}  // namespace

LbfgsResult minimize_projected_lbfgs(const LbfgsObjective& fn, std::vector<double>& x,
                                     const std::vector<double>& lower,
                                     const std::vector<double>& upper,
                                     const LbfgsOptions& options) {
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) x[i] = clamp_to_box(x[i], lower[i], upper[i]);

  struct Pair {
    std::vector<double> s, y;
  };
  std::deque<Pair> history;

  std::vector<double> g(n);
  std::vector<double> g_new(n);
  std::vector<double> d(n);
  std::vector<double> x_new(n);
  std::vector<std::size_t> free_idx;
  std::vector<double> alpha_buf;
  std::vector<double> rho_free;

  LbfgsResult result;
  double f = fn.value(x);
  ++result.value_evals;
  fn.gradient(g);
  ++result.gradient_evals;

  // Every exit reports the point it returns.
  auto report = [&] {
    result.objective = f;
    result.projected_gradient = pg_norm(x, g, lower, upper);
  };

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    runtime::poll_cancel();
    result.iterations = iter + 1;
    report();
    if (result.projected_gradient <= options.tol) {
      result.converged = true;
      return result;
    }

    // Active set: coordinates at a bound whose gradient points out of the
    // box. They get d_i = 0; the two-loop recursion runs on the rest.
    free_idx.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const bool active = (x[i] <= lower[i] && g[i] > 0.0) || (x[i] >= upper[i] && g[i] < 0.0);
      if (!active) free_idx.push_back(i);
    }
    auto dot_free = [&](const std::vector<double>& a, const std::vector<double>& b) {
      double s = 0.0;
      for (std::size_t i : free_idx) s += a[i] * b[i];
      return s;
    };

    // Two-loop recursion for d = -H g on the free coordinates. A pair whose
    // restricted curvature s.y is not safely positive is skipped this
    // iteration (rho_free = 0), and gamma comes from the newest pair kept.
    std::fill(d.begin(), d.end(), 0.0);
    for (std::size_t i : free_idx) d[i] = g[i];
    alpha_buf.assign(history.size(), 0.0);
    rho_free.assign(history.size(), 0.0);
    double gamma = 1.0;
    bool used_pairs = false;
    for (std::size_t k = history.size(); k-- > 0;) {
      const Pair& p = history[k];
      const double sy = dot_free(p.s, p.y);
      const double ss = dot_free(p.s, p.s);
      const double yy = dot_free(p.y, p.y);
      if (!(sy > 1e-10 * std::sqrt(ss * yy))) continue;
      rho_free[k] = 1.0 / sy;
      if (!used_pairs) {
        gamma = sy / std::max(yy, 1e-30);
        used_pairs = true;
      }
      alpha_buf[k] = rho_free[k] * dot_free(p.s, d);
      for (std::size_t i : free_idx) d[i] -= alpha_buf[k] * p.y[i];
    }
    for (std::size_t i : free_idx) d[i] *= gamma;
    for (std::size_t k = 0; k < history.size(); ++k) {
      if (rho_free[k] == 0.0) continue;
      const Pair& p = history[k];
      const double beta = rho_free[k] * dot_free(p.y, d);
      for (std::size_t i : free_idx) d[i] += (alpha_buf[k] - beta) * p.s[i];
    }
    for (std::size_t i : free_idx) d[i] = -d[i];

    // Projected Armijo backtracking along P(x + a d). If the quasi-Newton
    // direction fails outright (a free coordinate at a bound can still be
    // pushed out of the box, so gt_dx is NOT monotone in the step), retry
    // once from steepest descent with cleared curvature pairs.
    bool accepted = false;
    for (int attempt = 0; attempt < 2 && !accepted; ++attempt) {
      if (attempt == 1) {
        if (!used_pairs) break;  // d already was -g on the free set
        ++result.restarts;
        history.clear();
        for (std::size_t i = 0; i < n; ++i) d[i] = -g[i];
      }
      double step = 1.0;
      for (int bt = 0; bt < 60 && step >= kMinStep; ++bt, step *= 0.5) {
        double gt_dx = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          x_new[i] = clamp_to_box(x[i] + step * d[i], lower[i], upper[i]);
          gt_dx += g[i] * (x_new[i] - x[i]);
        }
        if (gt_dx >= 0.0) continue;  // non-descent at this length: shrink further
        const double f_new = fn.value(x_new);
        ++result.value_evals;
        if (f_new <= f + 1e-4 * gt_dx + 1e-12 * (1.0 + std::abs(f))) {
          fn.gradient(g_new);
          ++result.gradient_evals;
          Pair p;
          p.s.resize(n);
          p.y.resize(n);
          double sy = 0.0;
          double ss = 0.0;
          double yy = 0.0;
          for (std::size_t i = 0; i < n; ++i) {
            p.s[i] = x_new[i] - x[i];
            p.y[i] = g_new[i] - g[i];
            sy += p.s[i] * p.y[i];
            ss += p.s[i] * p.s[i];
            yy += p.y[i] * p.y[i];
          }
          if (sy > 1e-10 * std::sqrt(ss * yy)) {
            history.push_back(std::move(p));
            if (history.size() > kHistory) history.pop_front();
          }
          x = x_new;
          f = f_new;
          g = g_new;
          accepted = true;
          break;
        }
      }
    }
    if (!accepted) {
      // Line search failed even along steepest descent: stationary to
      // numerical precision.
      return result;
    }
  }
  report();
  return result;
}

}  // namespace statsize::nlp
