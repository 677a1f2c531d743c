#include "ssta/canonical.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "netlist/timing_view.h"
#include "ssta/propagate.h"
#include "stat/clark.h"

namespace statsize::ssta {

using netlist::NodeId;
using netlist::NodeKind;
using stat::NormalRV;

CanonicalForm CanonicalForm::variable(double mean, int source, double sigma) {
  CanonicalForm f(mean);
  if (sigma != 0.0) f.terms_.push_back({source, sigma});
  return f;
}

double CanonicalForm::variance() const {
  double v = 0.0;
  for (const auto& [id, coef] : terms_) {
    (void)id;
    v += coef * coef;
  }
  return v;
}

double CanonicalForm::sigma() const { return std::sqrt(variance()); }

double CanonicalForm::covariance(const CanonicalForm& a, const CanonicalForm& b) {
  // Sorted-merge dot product over shared sources.
  double cov = 0.0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.terms_.size() && j < b.terms_.size()) {
    const int ai = a.terms_[i].first;
    const int bj = b.terms_[j].first;
    if (ai == bj) {
      cov += a.terms_[i].second * b.terms_[j].second;
      ++i;
      ++j;
    } else if (ai < bj) {
      ++i;
    } else {
      ++j;
    }
  }
  return cov;
}

CanonicalForm CanonicalForm::add(const CanonicalForm& a, const CanonicalForm& b) {
  CanonicalForm out(a.mean_ + b.mean_);
  out.terms_.reserve(a.terms_.size() + b.terms_.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.terms_.size() || j < b.terms_.size()) {
    if (j >= b.terms_.size() || (i < a.terms_.size() && a.terms_[i].first < b.terms_[j].first)) {
      out.terms_.push_back(a.terms_[i++]);
    } else if (i >= a.terms_.size() || b.terms_[j].first < a.terms_[i].first) {
      out.terms_.push_back(b.terms_[j++]);
    } else {
      const double c = a.terms_[i].second + b.terms_[j].second;
      if (c != 0.0) out.terms_.push_back({a.terms_[i].first, c});
      ++i;
      ++j;
    }
  }
  return out;
}

CanonicalForm CanonicalForm::max(const CanonicalForm& a, const CanonicalForm& b,
                                 int& next_source) {
  const double cov = covariance(a, b);
  double tightness = 0.0;
  const NormalRV moments = stat::clark_max_correlated(a.to_normal(), b.to_normal(), cov,
                                                      &tightness);

  // Dominated cases keep the winning form exactly: a once Phi(alpha) rounds
  // to 1, b once Phi(-alpha) = 1 - Phi(alpha) does.
  const double wa = tightness;
  const double wb = 1.0 - tightness;
  if (wa >= 1.0) return a;
  if (wb >= 1.0) return b;

  // Linear mixing of coefficients preserves all cross-covariances to first
  // order: Cov(max, X) ~ Phi(alpha) Cov(A, X) + Phi(-alpha) Cov(B, X)
  // (Clark's eq. for the covariance with a third variable).
  CanonicalForm out(moments.mu);
  out.terms_.reserve(a.terms_.size() + b.terms_.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.terms_.size() || j < b.terms_.size()) {
    if (j >= b.terms_.size() || (i < a.terms_.size() && a.terms_[i].first < b.terms_[j].first)) {
      out.terms_.push_back({a.terms_[i].first, wa * a.terms_[i].second});
      ++i;
    } else if (i >= a.terms_.size() || b.terms_[j].first < a.terms_[i].first) {
      out.terms_.push_back({b.terms_[j].first, wb * b.terms_[j].second});
      ++j;
    } else {
      const double c = wa * a.terms_[i].second + wb * b.terms_[j].second;
      if (c != 0.0) out.terms_.push_back({a.terms_[i].first, c});
      ++i;
      ++j;
    }
  }

  // Match the Clark variance: top up with a private residual when the linear
  // part under-covers (the usual case), or scale down when it over-covers.
  const double var_lin = out.variance();
  if (moments.var > var_lin + 1e-15) {
    out.terms_.push_back({next_source++, std::sqrt(moments.var - var_lin)});
  } else if (var_lin > 0.0 && moments.var < var_lin) {
    const double scale = std::sqrt(moments.var / var_lin);
    for (auto& [id, coef] : out.terms_) {
      (void)id;
      coef *= scale;
    }
  }
  return out;
}

CanonicalTimingReport run_canonical_ssta(const netlist::TimingView& view,
                                         const std::vector<NormalRV>& gate_delays) {
  if (static_cast<int>(gate_delays.size()) != view.num_nodes()) {
    throw std::invalid_argument("gate_delays must be indexed by NodeId");
  }
  CanonicalTimingReport report;
  report.arrival.resize(static_cast<std::size_t>(view.num_nodes()));
  int next_source = view.num_nodes();  // residual ids beyond gate ids
  const auto max = [&](const CanonicalForm& a, const CanonicalForm& b) {
    return CanonicalForm::max(a, b, next_source);
  };

  for (NodeId id : view.topo_order()) {
    if (view.kind(id) == NodeKind::kPrimaryInput) {
      report.arrival[static_cast<std::size_t>(id)] = CanonicalForm::constant(0.0);
      continue;
    }
    const NormalRV& d = gate_delays[static_cast<std::size_t>(id)];
    report.arrival[static_cast<std::size_t>(id)] =
        CanonicalForm::add(fold_max(view.fanins(id), report.arrival, max),
                           CanonicalForm::variable(d.mu, static_cast<int>(id), d.sigma()));
  }
  report.circuit_delay = fold_max(view.outputs(), report.arrival, max);
  return report;
}

CanonicalTimingReport run_canonical_ssta(const DelayCalculator& calc,
                                         const std::vector<double>& speed) {
  return run_canonical_ssta(calc.view(), calc.all_delays(speed));
}

}  // namespace statsize::ssta
