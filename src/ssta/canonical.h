// Correlation-aware statistical timing via first-order canonical forms —
// the paper's primary future-work item ("dealing with correlations between
// stochastic variables in the circuit, as a result of reconverging paths,
// which is currently not included in our delay model").
//
// Every arrival time is represented as
//
//   T = mean + sum_g a_g xi_g + r xi_T
//
// where xi_g are independent unit normals, one per gate delay, and xi_T is a
// private residual absorbing the non-normal part introduced by max
// operations. Because the gate contributions are carried explicitly:
//
//   * ADD is exact: the gate's own sigma joins its coefficient slot, so a
//     gate shared by two reconverging paths contributes ONE random variable,
//     not two (this is exactly what the independence assumption of eq. 6
//     gets wrong);
//   * MAX uses Clark's correlated formulas with Cov(A, B) computed from the
//     shared coefficients, and mixes coefficients with the tightness weight
//     Phi(alpha) = P(A > B), rescaled so the total variance matches the
//     Clark moment (the standard canonical-form treatment in later SSTA
//     literature, e.g. Visweswariah et al. / Chang & Sapatnekar).
//
// The engine slots into the same workflow as run_ssta and is validated
// against Monte Carlo in tests and bench validation_correlation.

#pragma once

#include <utility>
#include <vector>

#include "netlist/timing_view.h"
#include "ssta/delay_model.h"
#include "stat/normal.h"

namespace statsize::ssta {

/// Sparse first-order canonical form over independent unit-normal sources.
/// Source ids < num_gate_sources refer to gate delays; ids above are private
/// residuals minted by max operations.
class CanonicalForm {
 public:
  CanonicalForm() = default;
  explicit CanonicalForm(double mean) : mean_(mean) {}

  static CanonicalForm constant(double mean) { return CanonicalForm(mean); }

  /// mean + sigma * xi_source.
  static CanonicalForm variable(double mean, int source, double sigma);

  double mean() const { return mean_; }
  double variance() const;
  double sigma() const;
  stat::NormalRV to_normal() const { return {mean_, variance()}; }

  /// Terms are kept sorted by source id (unique ids).
  const std::vector<std::pair<int, double>>& terms() const { return terms_; }

  static double covariance(const CanonicalForm& a, const CanonicalForm& b);

  /// Exact sum of jointly normal forms (shared sources combine linearly).
  static CanonicalForm add(const CanonicalForm& a, const CanonicalForm& b);

  /// Correlated Clark max with tightness-weighted coefficient mixing. Fresh
  /// residual sources are allocated from `next_source` (incremented).
  static CanonicalForm max(const CanonicalForm& a, const CanonicalForm& b, int& next_source);

 private:
  double mean_ = 0.0;
  std::vector<std::pair<int, double>> terms_;
};

struct CanonicalTimingReport {
  std::vector<CanonicalForm> arrival;  ///< per node
  CanonicalForm circuit_delay;

  stat::NormalRV circuit_delay_normal() const { return circuit_delay.to_normal(); }
};

/// Propagates canonical arrival times; gate delay g contributes source id g.
CanonicalTimingReport run_canonical_ssta(const netlist::TimingView& view,
                                         const std::vector<stat::NormalRV>& gate_delays);

/// Convenience overload mirroring run_ssta(DelayCalculator, speed).
CanonicalTimingReport run_canonical_ssta(const DelayCalculator& calc,
                                         const std::vector<double>& speed);

}  // namespace statsize::ssta
