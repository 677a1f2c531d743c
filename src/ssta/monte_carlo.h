// Monte Carlo timing — the validation oracle.
//
// The paper's predecessors ([9]) obtained statistical timing by Monte Carlo
// simulation, which the paper rejects for optimization because of cost but
// which remains the ground truth: it makes no independence assumption, so it
// captures the reconvergent-path correlations that the analytic propagation
// ignores. The engines here are used to (a) validate the Clark-max SSTA on
// whole circuits and (b) measure realized yield after sizing.

#pragma once

#include <cstdint>
#include <vector>

#include "netlist/timing_view.h"
#include "stat/normal.h"

namespace statsize::ssta {

struct MonteCarloResult {
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::vector<double> samples;  ///< sorted circuit-delay samples

  /// Empirical p-quantile of the circuit delay.
  double quantile(double p) const;

  /// Fraction of sampled circuits meeting `deadline` — the paper's "percentage
  /// of the circuits [that] will conform to the delay constraint" (sec. 4).
  double yield(double deadline) const;
};

struct MonteCarloOptions {
  int num_samples = 10000;
  /// Base seed. Trials are drawn in fixed chunks of 256, chunk i from its
  /// own splitmix64-derived stream (seed, i); chunks are sharded across the
  /// runtime's thread pool and recombined in chunk order, so every result —
  /// samples, moments, criticality — is bit-identical at any --jobs count.
  std::uint64_t seed = 1;
  bool truncate_negative_delays = true;  ///< clamp sampled gate delays at 0
};

/// Samples every gate delay independently from its normal distribution and
/// propagates deterministically; returns circuit-delay statistics.
MonteCarloResult run_monte_carlo(const netlist::TimingView& view,
                                 const std::vector<stat::NormalRV>& gate_delays,
                                 const MonteCarloOptions& options = {});

/// Per-gate criticality: the fraction of Monte Carlo trials in which the gate
/// lies on the critical path (computed by tracing back the argmax from the
/// critical primary output). Indexed by NodeId; inputs get 0.
std::vector<double> monte_carlo_criticality(const netlist::TimingView& view,
                                            const std::vector<stat::NormalRV>& gate_delays,
                                            const MonteCarloOptions& options = {});

}  // namespace statsize::ssta
