// Sizable statistical gate-delay model (paper sec. 4).
//
// Mean delay follows eq. 14:
//
//   mu_t = t_int + c * (C_load + sum_i C_in,i * S_i) / S_cell
//
// where C_load is the (constant) wire + pad capacitance on the gate's output
// and the sum runs over fanout gates, whose pin capacitance scales with their
// own speed factor S_i. The standard deviation is a function of the mean
// (eq. 16); the paper's experiments use sigma_t = 0.25 * mu_t (eq. 18e), which
// SigmaModel generalizes to sigma = kappa * mu + offset.

#pragma once

#include <vector>

#include "netlist/timing_view.h"
#include "stat/normal.h"

namespace statsize::ssta {

struct SigmaModel {
  double kappa = 0.25;  ///< proportional term (the paper's quarter-of-mean)
  double offset = 0.0;  ///< additive floor, e.g. process-independent jitter

  double sigma(double mu) const { return kappa * mu + offset; }
};

/// Evaluates the sizable delay model over a whole circuit's TimingView — the
/// compiled view of a Circuit (which converts to it) or an edited copy (the
/// ECO path).
class DelayCalculator {
 public:
  /// The caller keeps `view` alive for this calculator's lifetime.
  explicit DelayCalculator(const netlist::TimingView& view, SigmaModel sigma_model = {})
      : view_(&view), sigma_model_(sigma_model) {}

  /// The timing graph every evaluation runs on.
  const netlist::TimingView& view() const { return *view_; }

  const SigmaModel& sigma_model() const { return sigma_model_; }

  /// Mean delay of gate `id` under speed assignment `speed` (indexed by
  /// NodeId; entries for non-gates are ignored).
  double mean_delay(netlist::NodeId id, const std::vector<double>& speed) const;

  /// Full statistical delay of gate `id`.
  stat::NormalRV delay(netlist::NodeId id, const std::vector<double>& speed) const;

  /// Delays for every node (primary inputs get {0,0}), indexed by NodeId.
  std::vector<stat::NormalRV> all_delays(const std::vector<double>& speed) const;

  /// Sum of speed factors — the paper's area measure (Table 1's sum S_i).
  static double total_speed(const netlist::TimingView& view, const std::vector<double>& speed);

  /// Area-weighted sum (cell area scales linearly with S, see [3]/[8]).
  static double total_area(const netlist::TimingView& view, const std::vector<double>& speed);

 private:
  const netlist::TimingView* view_;
  SigmaModel sigma_model_;
};

}  // namespace statsize::ssta
