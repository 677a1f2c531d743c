#include "nlp/tron.h"

#include <algorithm>
#include <cmath>

#include "runtime/cancel.h"
#include "runtime/fault.h"

namespace statsize::nlp {

namespace {

constexpr int kMaxCgIterations = 100;  ///< per trust-region step
constexpr double kInitialRadius = 1.0;
constexpr double kMaxRadius = 1e8;
constexpr double kAcceptRatio = 1e-4;  ///< minimum actual/predicted reduction to move

double clamp_to_box(double v, double lo, double hi) { return std::min(std::max(v, lo), hi); }

double norm2(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x * x;
  return std::sqrt(s);
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

}  // namespace

double projected_gradient_norm(const std::vector<double>& x, const std::vector<double>& grad,
                               const std::vector<double>& lower,
                               const std::vector<double>& upper) {
  double worst = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double step = clamp_to_box(x[i] - grad[i], lower[i], upper[i]) - x[i];
    worst = std::max(worst, std::abs(step));
  }
  return worst;
}

TrustRegionResult minimize_bound_constrained(SmoothModel& model, std::vector<double>& x,
                                             const std::vector<double>& lower,
                                             const std::vector<double>& upper,
                                             const TrustRegionOptions& options) {
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) x[i] = clamp_to_box(x[i], lower[i], upper[i]);

  std::vector<double> g(n);
  std::vector<double> s(n);
  std::vector<double> hv(n);
  std::vector<double> trial(n);
  std::vector<double> r(n);
  std::vector<double> p(n);
  std::vector<double> d(n);
  std::vector<char> free_var(n);

  TrustRegionResult result;
  double f = model.eval(x, &g);
  double radius = kInitialRadius;
  bool need_grad = false;  // gradient is current for x

  // Stagnation window: if 50 iterations together achieve no meaningful
  // decrease, further grinding is pointless (typically ill-conditioned
  // curvature at active bounds keeps the projected gradient from certifying
  // optimality while f is already converged).
  double f_anchor = f;
  int anchor_iter = 0;

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    // Cooperative cancellation boundary: a --time-limit deadline stops the
    // solve here even when a single inner solve dominates the wall clock.
    runtime::poll_cancel();
    if (runtime::fault::hit(runtime::fault::kTronIter)) {
      throw runtime::OperationCancelled(runtime::CancelReason::kDeadline,
                                        "injected fault: tron.iter");
    }
    if (iter - anchor_iter >= 50) {
      if (f_anchor - f <= 1e-7 * (1.0 + std::abs(f))) return result;
      f_anchor = f;
      anchor_iter = iter;
    }
    result.iterations = iter + 1;
    if (need_grad) {
      f = model.eval(x, &g);
      need_grad = false;
    }
    result.projected_gradient = projected_gradient_norm(x, g, lower, upper);
    result.objective = f;
    if (result.projected_gradient <= options.tol) {
      result.converged = true;
      return result;
    }

    // ---- Generalized Cauchy point: backtrack t along P(x - t g) - x until
    // the quadratic model shows sufficient decrease within the radius.
    const double gnorm = std::max(norm2(g), 1e-30);
    double t = radius / gnorm;
    double m_cauchy = 0.0;
    bool have_cauchy = false;
    for (int bt = 0; bt < 40; ++bt) {
      double snorm2 = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        s[i] = clamp_to_box(x[i] - t * g[i], lower[i], upper[i]) - x[i];
        snorm2 += s[i] * s[i];
      }
      if (snorm2 == 0.0) break;  // fully blocked: projected gradient ~ 0
      if (std::sqrt(snorm2) <= radius * 1.0000001) {
        model.hess_vec(s, hv);
        const double gs = dot(g, s);
        const double m = gs + 0.5 * dot(s, hv);
        if (m <= 0.01 * gs) {  // gs < 0 along the projected path
          m_cauchy = m;
          have_cauchy = true;
          break;
        }
      }
      t *= 0.5;
    }
    if (!have_cauchy) {
      // The quadratic model rejects even tiny steps — shrink and retry.
      radius *= 0.25;
      if (radius < 1e-13) return result;
      continue;
    }

    // ---- Refine inside the free subspace with Steihaug truncated CG.
    // Active variables (at a bound after the Cauchy move) stay fixed.
    for (std::size_t i = 0; i < n; ++i) {
      const double xi = x[i] + s[i];
      const double span = 1e-10 * (1.0 + std::abs(xi));
      free_var[i] = static_cast<char>(xi > lower[i] + span && xi < upper[i] - span);
    }
    // r = -(g + H s) on the free set.
    model.hess_vec(s, hv);
    double r0norm = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      r[i] = free_var[i] ? -(g[i] + hv[i]) : 0.0;
      r0norm += r[i] * r[i];
    }
    r0norm = std::sqrt(r0norm);
    std::fill(d.begin(), d.end(), 0.0);
    if (r0norm > 1e-14) {
      const double cg_tol = std::min(0.1, std::sqrt(r0norm)) * r0norm;
      p = r;
      double rr = r0norm * r0norm;
      for (int cg = 0; cg < kMaxCgIterations; ++cg) {
        runtime::poll_cancel();
        model.hess_vec(p, hv);
        double php = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          if (free_var[i]) php += p[i] * hv[i];
        }
        if (php <= 1e-16 * dot(p, p)) break;  // non-convex direction: stop at d
        const double alpha = rr / php;
        bool exceeded = false;
        double sd_norm2 = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          const double nd = d[i] + alpha * p[i];
          sd_norm2 += (s[i] + nd) * (s[i] + nd);
        }
        if (std::sqrt(sd_norm2) > radius) exceeded = true;
        for (std::size_t i = 0; i < n; ++i) {
          if (free_var[i]) d[i] += alpha * p[i];
        }
        if (exceeded) break;
        double rr_new = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          if (free_var[i]) {
            r[i] -= alpha * hv[i];
            rr_new += r[i] * r[i];
          }
        }
        if (std::sqrt(rr_new) <= cg_tol) break;
        const double beta = rr_new / rr;
        rr = rr_new;
        for (std::size_t i = 0; i < n; ++i) p[i] = free_var[i] ? r[i] + beta * p[i] : 0.0;
      }
    }

    // Full step = Cauchy + CG refinement, projected back into the box.
    double snorm = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      s[i] = clamp_to_box(x[i] + s[i] + d[i], lower[i], upper[i]) - x[i];
      snorm += s[i] * s[i];
    }
    snorm = std::sqrt(snorm);
    model.hess_vec(s, hv);
    const double pred = -(dot(g, s) + 0.5 * dot(s, hv));
    double m_step = -pred;
    if (m_step > m_cauchy) {
      // CG refinement made the model worse after projection — fall back to
      // the pure Cauchy step next round by shrinking the radius.
      radius *= 0.5;
      if (radius < 1e-13) return result;
      continue;
    }

    for (std::size_t i = 0; i < n; ++i) trial[i] = x[i] + s[i];
    const double f_trial = model.eval(trial, nullptr);
    const double ared = f - f_trial;
    const double ratio = pred > 0.0 ? ared / pred : -1.0;

    if (ratio >= kAcceptRatio && ared > -1e-30) {
      x = trial;
      f = f_trial;
      need_grad = true;
      if (ratio >= 0.75 && snorm >= 0.8 * radius) {
        radius = std::min(2.0 * radius, kMaxRadius);
      } else if (ratio < 0.25) {
        radius = std::max(0.25 * snorm, 1e-13);
      }
      // Tiny relative decrease twice in a row would loop forever; detect it.
      if (std::abs(ared) <= 1e-15 * (1.0 + std::abs(f))) {
        f = model.eval(x, &g);
        result.projected_gradient = projected_gradient_norm(x, g, lower, upper);
        result.objective = f;
        result.converged = result.projected_gradient <= options.tol;
        return result;
      }
    } else {
      radius = std::max(0.25 * std::min(snorm, radius), 1e-14);
      if (radius < 1e-13) return result;
    }
  }
  return result;
}

}  // namespace statsize::nlp
