#include "nlp/projected_lbfgs.h"

#include <algorithm>
#include <cmath>

#include "nlp/tron.h"
#include "runtime/cancel.h"

namespace statsize::nlp {

namespace {

constexpr std::size_t kHistory = 10;  ///< curvature pairs kept
constexpr double kMinStep = 1e-14;

double clamp_to_box(double v, double lo, double hi) { return std::min(std::max(v, lo), hi); }

}  // namespace

LbfgsResult minimize_projected_lbfgs(const LbfgsObjective& fn, std::vector<double>& x,
                                     const std::vector<double>& lower,
                                     const std::vector<double>& upper,
                                     const LbfgsOptions& options) {
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) x[i] = clamp_to_box(x[i], lower[i], upper[i]);

  // One ring of kHistory + 1 pair slots, allocated once: pair(0..count-1)
  // are the kept pairs, oldest first; pair(count) holds a candidate until it
  // passes the curvature test. A slot caches s and y gathered onto the free
  // coordinates, and their restricted s.y, s.s, y.y, until the free set moves.
  struct Pair {
    std::vector<double> s, y, s_free, y_free;
    double sy = 0.0, ss = 0.0, yy = 0.0, rho = 0.0, alpha = 0.0;
    bool cached = false;
  };
  std::vector<Pair> ring(kHistory + 1);
  for (Pair& p : ring) p.s = p.y = p.s_free = p.y_free = std::vector<double>(n);
  std::size_t head = 0;
  std::size_t count = 0;
  const auto pair = [&](std::size_t k) -> Pair& { return ring[(head + k) % ring.size()]; };

  std::vector<double> g(n);
  std::vector<double> g_new(n);
  std::vector<double> d(n);
  std::vector<double> d_free(n);
  std::vector<double> x_new(n);
  std::vector<std::size_t> free_idx;
  std::vector<std::size_t> last_free_idx;

  LbfgsResult result;
  double f = fn.value(x);
  ++result.value_evals;
  fn.gradient(g);
  ++result.gradient_evals;

  // Every exit reports the point it returns.
  auto report = [&] {
    result.objective = f;
    result.projected_gradient = projected_gradient_norm(x, g, lower, upper);
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
    if (free_idx != last_free_idx) {
      for (Pair& p : ring) p.cached = false;
      last_free_idx = free_idx;
    }
    const std::size_t nf = free_idx.size();
    // Every restricted sum runs in free-coordinate order.
    const auto dot_free = [nf](const std::vector<double>& a, const std::vector<double>& b) {
      double sum = 0.0;
      for (std::size_t j = 0; j < nf; ++j) sum += a[j] * b[j];
      return sum;
    };

    // Two-loop recursion for d = -H g on the free coordinates, gathered into
    // d_free. A pair whose restricted curvature s.y is not safely positive
    // is skipped this iteration (rho = 0), and gamma comes from the newest
    // pair kept.
    for (std::size_t j = 0; j < nf; ++j) d_free[j] = g[free_idx[j]];
    double gamma = 1.0;
    bool used_pairs = false;
    for (std::size_t k = count; k-- > 0;) {
      Pair& p = pair(k);
      if (!p.cached) {
        double sy = 0.0, ss = 0.0, yy = 0.0;
        for (std::size_t j = 0; j < nf; ++j) {
          const double sj = p.s_free[j] = p.s[free_idx[j]];
          const double yj = p.y_free[j] = p.y[free_idx[j]];
          sy += sj * yj;
          ss += sj * sj;
          yy += yj * yj;
        }
        p.sy = sy;
        p.ss = ss;
        p.yy = yy;
        p.cached = true;
      }
      p.rho = 0.0;
      if (!(p.sy > 1e-10 * std::sqrt(p.ss * p.yy))) continue;
      p.rho = 1.0 / p.sy;
      if (!used_pairs) {
        gamma = p.sy / std::max(p.yy, 1e-30);
        used_pairs = true;
      }
      p.alpha = p.rho * dot_free(p.s_free, d_free);
      for (std::size_t j = 0; j < nf; ++j) d_free[j] -= p.alpha * p.y_free[j];
    }
    for (std::size_t j = 0; j < nf; ++j) d_free[j] *= gamma;
    for (std::size_t k = 0; k < count; ++k) {
      const Pair& p = pair(k);
      if (p.rho == 0.0) continue;
      const double beta = p.rho * dot_free(p.y_free, d_free);
      for (std::size_t j = 0; j < nf; ++j) d_free[j] += (p.alpha - beta) * p.s_free[j];
    }
    std::fill(d.begin(), d.end(), 0.0);
    for (std::size_t j = 0; j < nf; ++j) d[free_idx[j]] = -d_free[j];

    // Projected Armijo backtracking along P(x + a d). If the quasi-Newton
    // direction fails outright (a free coordinate at a bound can still be
    // pushed out of the box, so gt_dx is NOT monotone in the step), retry
    // once from steepest descent with cleared curvature pairs.
    bool accepted = false;
    for (int attempt = 0; attempt < 2 && !accepted; ++attempt) {
      if (attempt == 1) {
        if (!used_pairs) break;  // d already was -g on the free set
        ++result.restarts;
        count = 0;
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
          // The candidate goes into the free slot after the newest pair.
          Pair& p = pair(count);
          double sy = 0.0, ss = 0.0, yy = 0.0;
          for (std::size_t i = 0; i < n; ++i) {
            p.s[i] = x_new[i] - x[i];
            p.y[i] = g_new[i] - g[i];
            sy += p.s[i] * p.y[i];
            ss += p.s[i] * p.s[i];
            yy += p.y[i] * p.y[i];
          }
          if (sy > 1e-10 * std::sqrt(ss * yy)) {  // kept; a full ring drops its oldest
            p.cached = false;
            head = (head + (count == kHistory ? 1 : 0)) % ring.size();
            count = std::min(count + 1, kHistory);
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
